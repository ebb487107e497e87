"""Command line behavior: formats, JSON payloads and exit codes."""

import csv
import hashlib
import json
import random

import pytest

from copgame import (
    Digraph,
    clique_substitute_all,
    format_arc_list,
    gen_directed_cycle,
    gen_projective_plane_incidence_doubled,
    gen_random_digraph,
    parse_arc_list,
)
from copgame import cli
from copgame.cli import main
from copgame.solver import SolveResult

C3_TEXT = format_arc_list(gen_directed_cycle(3))
C4_TEXT = format_arc_list(gen_directed_cycle(4))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestGen:
    def test_path(self, capsys):
        code, out, _ = run(capsys, "gen", "path", "--k", "3")
        assert code == 0
        assert parse_arc_list(out) == Digraph(3, [(0, 1), (1, 2)])

    def test_cycle_to_file(self, capsys, tmp_path):
        target = tmp_path / "c.dg"
        code, out, _ = run(capsys, "gen", "cycle", "--n", "4", "-o", str(target))
        assert code == 0 and out == ""
        assert parse_arc_list(target.read_text()) == gen_directed_cycle(4)

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        # A missing parent directory, then a target that is a directory.
        for target in (tmp_path / "no" / "such" / "c4.dg", tmp_path):
            code, out, err = run(capsys, "gen", "cycle", "--n", "4", "-o", str(target))
            assert code == 2 and out == "" and err.startswith("error:")

    def test_claw(self, capsys):
        code, out, _ = run(capsys, "gen", "claw", "--index", "2")
        assert code == 0
        assert parse_arc_list(out) == Digraph(4, [(1, 0), (2, 0), (3, 0)])

    def test_claw_index_range(self, capsys):
        code, _, err = run(capsys, "gen", "claw", "--index", "4")
        assert code == 2 and "error:" in err

    def test_plane(self, capsys):
        code, out, _ = run(capsys, "gen", "plane", "--q", "2")
        assert code == 0
        d = parse_arc_list(out)
        assert d.n == 14 and d.arc_count == 42

    def test_random_deterministic(self, capsys):
        args = ("gen", "random", "--n", "5", "--p", "0.4", "--seed", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_missing_flag(self, capsys):
        code, _, err = run(capsys, "gen", "cycle")
        assert code == 2 and "--n is required" in err

    def test_unknown_family(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "torus"])


class TestTransform:
    def test_clique_sub_all(self, capsys, tmp_path):
        src = write(tmp_path, "c3.dg", C3_TEXT)
        code, out, _ = run(capsys, "transform", src, "--op", "clique-sub-all")
        assert code == 0
        d = parse_arc_list(out)
        assert d.n == 6 and d.arc_count == 6

    def test_clique_sub_vertex(self, capsys, tmp_path):
        src = write(tmp_path, "c3.dg", C3_TEXT)
        code, out, _ = run(
            capsys, "transform", src, "--op", "clique-sub-vertex", "--vertex", "0"
        )
        assert code == 0
        assert parse_arc_list(out).n == 4

    def test_subdivide(self, capsys, tmp_path):
        src = write(tmp_path, "c3.dg", C3_TEXT)
        code, out, _ = run(capsys, "transform", src, "--op", "subdivide", "--m", "2")
        assert code == 0
        assert parse_arc_list(out) == Digraph(
            6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)]
        )

    def test_missing_m(self, capsys, tmp_path):
        src = write(tmp_path, "c3.dg", C3_TEXT)
        code, _, err = run(capsys, "transform", src, "--op", "subdivide")
        assert code == 2 and "--m is required" in err


class TestCheck:
    def test_pk_found(self, capsys, tmp_path):
        src = write(tmp_path, "c3.dg", C3_TEXT)
        code, out, _ = run(capsys, "check", src, "--pk", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "check": "pk-subgraph",
            "k": 3,
            "free": False,
            "witness": [0, 1, 2],
            "kind": "pk-subgraph",
        }

    def test_pk_star(self, capsys, tmp_path):
        src = write(tmp_path, "shortcut.dg", "3 3\n0 1\n1 2\n0 2\n")
        code, out, _ = run(capsys, "check", src, "--pk-star", "3")
        payload = json.loads(out)
        assert code == 0 and payload["free"] is True
        assert payload["witness"] is None and payload["kind"] is None

    def test_induced(self, capsys, tmp_path):
        host = write(tmp_path, "pair.dg", "2 2\n0 1\n1 0\n")
        pattern = write(tmp_path, "arc.dg", "2 1\n0 1\n")
        code, out, _ = run(capsys, "check", host, "--induced", pattern)
        payload = json.loads(out)
        assert code == 0 and payload["free"] is True
        assert payload["check"] == "induced"

    def test_exactly_one_mode(self, capsys, tmp_path):
        src = write(tmp_path, "c3.dg", C3_TEXT)
        code, _, err = run(capsys, "check", src)
        assert code == 2 and "exactly one" in err
        code, _, err = run(capsys, "check", src, "--pk", "3", "--pk-star", "3")
        assert code == 2 and "exactly one" in err

    def test_bad_k(self, capsys, tmp_path):
        src = write(tmp_path, "c3.dg", C3_TEXT)
        code, _, err = run(capsys, "check", src, "--pk", "1")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "flag, kind",
        [("--pk", "pk-subgraph"), ("--pk-star", "pk-star"), ("--induced", "induced-iso")],
    )
    def test_long_path_witness(self, capsys, tmp_path, flag, kind):
        # deeper than the default recursion limit of 1000
        src = str(tmp_path / "p.dg")
        assert run(capsys, "gen", "path", "--k", "1500", "-o", src)[0] == 0
        code, out, _ = run(capsys, "check", src, flag, src if flag == "--induced" else "1500")
        payload = json.loads(out)
        assert code == 0 and payload["free"] is False
        assert payload["kind"] == kind
        assert payload["witness"] == list(range(1500))


class TestSolve:
    def test_cycle_needs_two(self, capsys, tmp_path):
        src = write(tmp_path, "c4.dg", C4_TEXT)
        code, out, _ = run(capsys, "solve", src)
        payload = json.loads(out)
        assert code == 0
        assert payload["n"] == 4 and payload["k_max"] == 4
        assert payload["cop_number"] == 2
        assert sorted(payload["placement"]) == payload["placement"]
        assert len(payload["placement"]) == 2

    def test_k_max_cuts_off(self, capsys, tmp_path):
        src = write(tmp_path, "c4.dg", C4_TEXT)
        code, out, _ = run(capsys, "solve", src, "--k-max", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["cop_number"] is None and payload["placement"] is None

    def test_budget_error(self, capsys, tmp_path):
        src = write(tmp_path, "c4.dg", C4_TEXT)
        code, _, err = run(capsys, "solve", src, "--state-budget", "4")
        assert code == 2 and "error:" in err

    def test_budget_below_one(self, capsys, tmp_path):
        src = write(tmp_path, "c4.dg", C4_TEXT)
        code, out, err = run(capsys, "solve", src, "--state-budget", "-5")
        assert code == 2 and out == ""
        assert "state budget must be >= 1, got -5" in err

    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_k_max_below_one(self, capsys, tmp_path, k_max):
        src = write(tmp_path, "c4.dg", C4_TEXT)
        code, out, err = run(capsys, "solve", src, "--k-max", k_max)
        assert code == 2 and out == "" and "k_max must be >= 1" in err

    def test_frozen_json(self, capsys, tmp_path):
        # The printed JSON of 300 seeded digraphs on at most 7 vertices (110
        # of their placements are not all zeros), the order-2 plane and its
        # full substitution.  Both of the last two are vertex-transitive, so
        # no relabelling moves their placement off [0, 0, 0].
        rng = random.Random(11)
        hosts = [gen_random_digraph(rng.randint(1, 7), rng.random(), seed) for seed in range(300)]
        plane = gen_projective_plane_incidence_doubled(2)
        hosts += [plane, clique_substitute_all(plane)]
        digest = hashlib.sha256()
        for d in hosts:
            code, out, _ = run(capsys, "solve", write(tmp_path, "d.dg", format_arc_list(d)))
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == (
            "ced5281dc8eb1fd2413035fdafde4f82ae674c451c09ed7697017428aa387269"
        )

    def test_vertex_0_reaching_every_vertex_skips_the_remaining_levels(
        self, capsys, tmp_path, monkeypatch
    ):
        def no_completion(self):
            raise AssertionError("the table was finished")

        monkeypatch.setattr(SolveResult, "_complete", no_completion)
        plane = gen_projective_plane_incidence_doubled(2)
        src = write(tmp_path, "plane.dg", format_arc_list(plane))
        code, out, _ = run(capsys, "solve", src)
        assert code == 0
        assert '"cop_number": 3' in out and '"placement": [0, 0, 0]' in out

    def test_vertex_0_reaching_nothing_finishes_the_table(self, capsys, tmp_path):
        # The reversed path 3 -> 2 -> 1 -> 0: a robber on 3 beats a cop on
        # 0, 1 or 2, and only a cop on 3 wins.
        src = write(tmp_path, "rpath.dg", "4 3\n1 0\n2 1\n3 2\n")
        code, out, _ = run(capsys, "solve", src)
        assert code == 0
        assert '"cop_number": 1' in out and '"placement": [3]' in out


class TestSimulate:
    def test_capture(self, capsys, tmp_path):
        src = write(tmp_path, "c4.dg", C4_TEXT)
        code, out, _ = run(capsys, "simulate", src, "--k", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["outcome"] == "capture" and payload["repeat"] is None
        last = payload["snapshots"][-1]
        assert last["robber"] in last["cops"]
        first = payload["snapshots"][0]
        assert first["cops"] == payload["cops_start"]
        assert first["robber"] == payload["robber_start"]
        assert first["to_move"] == "cops"

    def test_escape(self, capsys, tmp_path):
        src = write(tmp_path, "c4.dg", C4_TEXT)
        code, out, _ = run(capsys, "simulate", src, "--k", "1")
        payload = json.loads(out)
        assert code == 0
        assert payload["outcome"] == "robber-escape"
        i, j = payload["repeat"]
        assert payload["snapshots"][i] == payload["snapshots"][j]

    @pytest.mark.parametrize("rounds", ["1", "0", "-1"])
    def test_round_limit(self, capsys, tmp_path, rounds):
        # two cops need more than one round to catch the robber on C4; a
        # limit below one round is refused as invalid before solving
        src = write(tmp_path, "c4.dg", C4_TEXT)
        code, out, err = run(capsys, "simulate", src, "--k", "2", "--max-rounds", rounds)
        expected = "round limit" if rounds == "1" else f"max_rounds must be >= 1, got {rounds}"
        assert code == 2 and out == "" and expected in err


class TestDot:
    def test_stdout(self, capsys, tmp_path):
        src = write(tmp_path, "c3.dg", C3_TEXT)
        code, out, _ = run(capsys, "dot", src)
        assert code == 0
        assert out.startswith("digraph G {") and "0 -> 1;" in out


class TestVerify:
    def test_single_suite(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, out, _ = run(
            capsys,
            "verify",
            "--suite", "lemma1",
            "--trials", "2",
            "--n-max", "4",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert out.splitlines() == ["lemma1: instances=2 violations=0 errors=0"]
        with open(out_dir / "lemma1.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        with open(out_dir / "summary.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 2

    def test_all_suites(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, out, _ = run(
            capsys,
            "verify",
            "--trials", "1",
            "--n-max", "3",
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert len(out.splitlines()) == 6
        names = sorted(p.name for p in out_dir.iterdir())
        assert "summary.csv" in names and len(names) == 7

    def test_errors_exit_two(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite", "lemma1",
            "--trials", "1",
            "--n-max", "2",
            "--state-budget", "4",
            "--out-dir", str(tmp_path / "r"),
        )
        assert code == 2
        assert "errors=1" in out

    def test_negative_seed_exits_two(self, capsys, tmp_path):
        out_dir = tmp_path / "r"
        code, out, err = run(
            capsys, "verify", "--seed", "-2", "--out-dir", str(out_dir)
        )
        assert code == 2 and out == "" and "seed must be >= 0" in err
        assert not out_dir.exists()

    def test_bad_k_values(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "verify",
            "--suite", "theorem3",
            "--k-values", "x,y",
            "--out-dir", str(tmp_path / "r"),
        )
        assert code == 2 and "comma-separated" in err

    def test_k_values_checked_before_any_suite(self, capsys, tmp_path):
        out_dir = tmp_path / "r"
        for k_values, message in (
            ("2", "k values must be within"),
            ("3,3", "k values must not repeat, got (3, 3)"),
        ):
            code, out, err = run(
                capsys, "verify", "--k-values", k_values, "--out-dir", str(out_dir)
            )
            assert code == 2 and out == "" and message in err
            assert not out_dir.exists()

    def test_budget_below_one_refused_before_any_suite(self, capsys, tmp_path, monkeypatch):
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran before the budget check")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        out_dir = tmp_path / "r"
        code, out, err = run(
            capsys, "verify", "--suite", "lemma1", "--state-budget", "0",
            "--out-dir", str(out_dir),
        )
        assert code == 2 and out == ""
        assert "state budget must be >= 1, got 0" in err
        assert not out_dir.exists()

    def test_out_dir_file_refused_before_any_suite(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "occupied"
        target.write_text("x")

        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran before the --out-dir check")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        code, out, err = run(capsys, "verify", "--out-dir", str(target))
        assert code == 2 and out == "" and "not a directory" in err
        assert target.read_text() == "x"

    def test_uncreatable_out_dir_refused_before_any_suite(
        self, capsys, tmp_path, monkeypatch
    ):
        occupied = tmp_path / "occupied"
        occupied.write_text("x")

        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran before the --out-dir check")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        code, out, err = run(capsys, "verify", "--out-dir", str(occupied / "sub"))
        assert code == 2 and out == "" and "cannot be created" in err

    def test_failed_report_write_exits_two(self, capsys, tmp_path):
        # The directory exists, but lemma1.csv cannot be opened for writing.
        (tmp_path / "lemma1.csv").mkdir()
        code, out, err = run(
            capsys, "verify", "--suite", "lemma1", "--trials", "1", "--n-max", "3",
            "--out-dir", str(tmp_path),
        )
        assert code == 2 and out == "" and err.startswith("error:")


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/file.dg")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "command, choice, flags, flag",
        [
            pytest.param(command, choice, flags, flag, id=f"{command}-{choice}-{flag}")
            for command, table in (("gen", cli._GEN), ("transform", cli._TRANSFORM))
            for choice, (flags, _) in table.items()
            for flag in flags
        ],
    )
    def test_missing_flag_named(self, capsys, tmp_path, command, choice, flags, flag):
        # Every flag a family or op reads, left out while the others are given.
        values = {"k": "3", "n": "4", "index": "1", "q": "2", "p": "0.5", "seed": "1",
                  "vertex": "0", "m": "2"}
        given = [x for f in flags if f != flag for x in (f"--{f}", values[f])]
        if command == "gen":
            argv = ["gen", choice, *given]
        else:
            argv = ["transform", write(tmp_path, "c3.dg", C3_TEXT), "--op", choice, *given]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: --{flag} is required for this family\n"

    @pytest.mark.parametrize("command", ["solve", "check --induced"])
    def test_non_utf8_file(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.dg"
        bad.write_bytes(b"\xff\xfe3 0\n")
        if command == "solve":
            argv = ["solve", str(bad)]
        else:
            argv = ["check", write(tmp_path, "c3.dg", C3_TEXT), "--induced", str(bad)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {bad}: not UTF-8 text (bad byte at offset 0)\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("gen cycle --n 1", "cycle length must be >= 2, got 1"),
            ("gen path --k 0", "path length must be >= 1, got 0"),
            ("gen random --n 0 --p 0.3 --seed 1", "vertex count must be >= 1, got 0"),
            ("gen random --n 5 --p 1.5 --seed 1", "arc probability must be in [0, 1], got 1.5"),
            ("transform C4 --op subdivide --m 0", "subdivision factor must be >= 1, got 0"),
            ("check C4 --pk 1", "path pattern length must be >= 2, got 1"),
            ("check C4 --pk-star 1", "path pattern length must be >= 2, got 1"),
            ("simulate C4 --k 0", "cop count must be >= 1, got 0"),
            ("simulate C4 --k 1000000",
             "1333341333348000008 positions exceed the state budget of 50000000"),
            ("verify --trials 0 --out-dir OUT", "trials must be >= 1, got 0"),
            ("verify --n-max 1 --out-dir OUT", "n_max must be >= 2, got 1"),
            ("verify --p 2 --out-dir OUT", "arc probability must be in [0, 1], got 2.0"),
        ],
    )
    def test_bound_refusals(self, capsys, tmp_path, argv, message):
        paths = {"C4": write(tmp_path, "c4.dg", C4_TEXT), "OUT": str(tmp_path / "out")}
        code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv.split()))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        # refused before any work: verify creates no report directory
        assert not (tmp_path / "out").exists()

    def test_corrupted_file(self, capsys, tmp_path):
        src = write(tmp_path, "bad.dg", "3 2\n0 1\n")
        code, _, err = run(capsys, "check", src, "--pk", "3")
        assert code == 2 and "bad.dg" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "random", "--n", "1000000000", "--p", "0", "--seed", "1"),
            ("gen", "path", "--k", "1000000000"),
            ("gen", "cycle", "--n", "1000000000"),
            ("gen", "plane", "--q", "1000000007"),
        ],
    )
    def test_huge_generator(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "exceeds the limit" in err

    def test_random_draws_refused_before_drawing(self, capsys):
        # Every vertex count up to the cap of 100,000 is allowed, but
        # 100,000 vertices would take 10^10 draws: about nine minutes.
        code, out, err = run(capsys, "gen", "random", "--n", "100000", "--p", "0", "--seed", "1")
        assert code == 2 and out == ""
        assert "random draw count 9999900000 exceeds the limit" in err

    def test_huge_subdivision(self, capsys, tmp_path):
        src = write(tmp_path, "c3.dg", C3_TEXT)
        code, _, err = run(capsys, "transform", src, "--op", "subdivide", "--m", "1000000000")
        assert code == 2 and "exceeds the limit" in err

    def test_huge_vertex_count(self, capsys, tmp_path):
        src = write(tmp_path, "huge.dg", "1000000000 0\n")
        code, _, err = run(capsys, "check", src, "--pk", "2")
        assert code == 2 and "exceeds the limit" in err
