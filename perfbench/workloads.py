"""The four workloads: inputs built from the workload seed, the calls one
pass makes, and the answer each call must give.

Every call goes through a copgame module attribute looked up at call time,
so the traced run sees it.  Every checked answer is invariant under the
vertex relabelling the seed draws, so any seed must pass.

    plane-q3  cop_number on the order-3 doubled plane (n = 26, answer 4).
              The only instance where building the solver's table
              dominates: the k = 4 game has 1,235,052 positions.
    verify    `copgame verify --suite all`: about 2,700 solves on n <= 7,
              where fixed per-call cost dominates.  Each pass draws a
              fresh instance set (suite_seed).
    replay    replay_instance over a systematic sample of the (suite, seed)
              pairs a verify run recorded: the harness's read path.
    cli       about 30 CLI calls on mid-size arc-list files: parse and
              format, JSON output, a high-n low-k solve, pattern searches
              and the solver's read path (placement scan, best_move).
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Op:
    """One closed-loop call and the check of its answer."""

    label: str
    call: object
    check: object


@dataclass
class Workload:
    ops: list
    # Checks made on the spans of a traced pass, as (label, predicate).
    trace_checks: list = field(default_factory=list)
    # Read op latencies per pass instead of per call.
    latency_of_pass: bool = False


def relabel(cg, d, rng: random.Random):
    """d with its vertex ids shuffled by rng."""
    perm = list(range(d.n))
    rng.shuffle(perm)
    return cg.Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])


def run_cli(cg, argv):
    """copgame's command line, in process: (exit code, stdout text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cg.cli.main(argv)
    return code, buf.getvalue()


# verify cycles through this many instance sets, so that every run of at
# least this many passes sees the same sets, whatever the machine's speed.
VERIFY_SETS = 4


def suite_seed(seed: int, pass_index: int) -> int:
    """The --seed of a workload seed's verify run number pass_index.

    Trial i of a suite reads seed block (suite seed + i) * 1000, and no
    suite runs more than 300 trials, so the VERIFY_SETS suite seeds of a
    workload seed share no block with each other or with any other
    workload seed's.  How much solving an instance set needs varies by
    about 10 % between sets, so a run takes the median over several sets
    rather than one.
    """
    return 100_000 * seed + 300 * (pass_index % VERIFY_SETS)


def _verify_argv(suite: int, out_dir: Path):
    return ["verify", "--suite", "all", "--seed", str(suite), "--out-dir", str(out_dir)]


# ---------------------------------------------------------------- plane-q3

PLANE_Q3_COP_NUMBER = 4
PLANE_Q3_K4_POSITIONS = 1_235_052


def plane_q3(cg, seed: int, work: Path) -> Workload:
    d = relabel(cg, cg.gen_projective_plane_incidence_doubled(3), random.Random(seed))

    def k4_positions(spans):
        return any(s[0] == "solver.solve" and s[4] == (4, PLANE_Q3_K4_POSITIONS) for s in spans)

    return Workload(
        ops=[Op("cop_number", lambda: cg.cop_number(d, k_max=4), lambda c: c == PLANE_Q3_COP_NUMBER)],
        trace_checks=[("k=4 positions", k4_positions)],
    )


# ------------------------------------------------------------------ verify

# Instances per suite under the default configs, whatever the seed.
VERIFY_INSTANCES = {
    "lemma1": 200, "lemma2": 400, "lemma3": 100,
    "lemma4": 300, "theorem1": 201, "theorem3": 3852,
}


def summary_ok(out_dir: Path) -> bool:
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = {r["suite"]: (int(r["instances"]), r["violations"], r["errors"]) for r in rows}
    return got == {s: (n, "0", "0") for s, n in VERIFY_INSTANCES.items()}


def verify(cg, seed: int, work: Path) -> Workload:
    out = work / "verify"
    passes = itertools.count()

    def call():
        return run_cli(cg, _verify_argv(suite_seed(seed, next(passes)), out))

    return Workload(ops=[Op("verify", call, lambda r: r[0] == 0 and summary_ok(out))])


# ------------------------------------------------------------------ replay

# One recorded pair in REPLAY_STEP is replayed: about 150 of the 2,727.
REPLAY_STEP = 18


def recorded_rows(cg, out_dir: Path) -> dict:
    """(suite, seed) -> the CSV rows recorded for it, micros dropped."""
    rows = {}
    for token in cg.RUN_ORDER:
        with open(out_dir / f"{token}.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                rows.setdefault((row[0], int(row[1])), []).append(row[:-1])
    return rows


def replay(cg, seed: int, work: Path) -> Workload:
    out = work / "recorded"
    suite = suite_seed(seed, 0)
    code, _ = run_cli(cg, _verify_argv(suite, out))
    if code != 0:
        raise RuntimeError(f"the recording verify run exited with {code}")
    rows = recorded_rows(cg, out)
    # A systematic sample with a seeded start: every pair has the same
    # chance, and the exhaustive theorem3 seeds, whose replay cost grows
    # with their code, are covered evenly, which keeps runs comparable.
    pairs = list(rows)[random.Random(seed).randrange(REPLAY_STEP)::REPLAY_STEP]
    cfgs = {t: cg.config_with_overrides(t, seed=suite) for t in cg.RUN_ORDER}
    return Workload(ops=[
        Op(
            f"{token}:{s}",
            lambda token=token, s=s: cg.replay_instance(token, s, cfgs[token]),
            lambda recs, want=rows[(token, s)]: [r.row()[:-1] for r in recs] == want,
        )
        for token, s in pairs
    ])


# --------------------------------------------------------------------- cli

RANDOM_GRAPH = (30, 0.15, 7)  # n, p, generator seed of the random host


def _arc_list(path) -> tuple:
    lines = Path(path).read_text().splitlines()
    n, m = map(int, lines[0].split())
    return n, m, [tuple(map(int, line.split())) for line in lines[1:]]


def _header(n, m):
    def check(r):
        got_n, got_m, arcs = _arc_list(r[2])
        return r[0] == 0 and (got_n, got_m) == (n, m) and len(arcs) == m
    return check


def _json(check):
    def run(r):
        return r[0] == 0 and check(json.loads(r[1]))
    return run


def _free(expected):
    return _json(lambda out: out["free"] is expected and (out["witness"] is None) is expected)


def _path_witness(arcs, k, star):
    """A --pk (star False) or --pk-star (star True) answer with a witness
    that really is a directed path, checked here independently."""
    def check(out):
        w = out["witness"]
        if out["free"] or w is None or len(w) != k or len(set(w)) != k:
            return False
        if any((w[i], w[i + 1]) not in arcs for i in range(k - 1)):
            return False
        return not star or not any(
            (w[i], w[j]) in arcs for i in range(k) for j in range(i + 2, k)
        )
    return _json(check)


def _cop_number(n, c):
    return _json(lambda out: out["n"] == n and out["cop_number"] == c
                 and len(out["placement"]) == c and all(0 <= v < n for v in out["placement"]))


def _trace(k, outcome):
    def check(out):
        snaps = out["snapshots"]
        last = snaps[-1]
        if out["k"] != k or out["outcome"] != outcome or len(snaps[0]["cops"]) != k:
            return False
        if outcome == "capture":
            return last["robber"] in last["cops"]
        i, j = out["repeat"]
        return snaps[i] == snaps[j] == last
    return _json(check)


def _dot(n, m):
    def check(r):
        lines = Path(r[2]).read_text().splitlines()
        return r[0] == 0 and lines[0] == "digraph G {" and len(lines) == n + m + 2
    return check


def cli(cg, seed: int, work: Path) -> Workload:
    graphs = {
        "q2": cg.gen_projective_plane_incidence_doubled(2),
        "q3": cg.gen_projective_plane_incidence_doubled(3),
        "c12": cg.gen_directed_cycle(12),
        "rnd": cg.gen_random_digraph(*RANDOM_GRAPH),
    }
    graphs = {name: relabel(cg, d, random.Random(f"{seed}/{name}")) for name, d in graphs.items()}
    for name, d in graphs.items():
        (work / f"{name}.dg").write_text(cg.format_arc_list(d))
    rnd_arcs, q2_arcs = graphs["rnd"].arcs, graphs["q2"].arcs

    def f(name):
        return str(work / name)

    n, p, gseed = RANDOM_GRAPH
    script = [
        *[(["gen", "claw", "--index", str(i), "-o", f(f"claw{i}.dg")], _header(4, 3))
          for i in range(4)],
        (["gen", "plane", "--q", "3", "-o", f("plane3.dg")], _header(26, 104)),
        (["gen", "random", "--n", str(n), "--p", str(p), "--seed", str(gseed),
          "-o", f("random.dg")], _header(30, 145)),
        (["gen", "cycle", "--n", "12", "-o", f("cycle12.dg")], _header(12, 12)),
        (["transform", f("q2.dg"), "--op", "clique-sub-all", "-o", f("q2sub.dg")], _header(42, 126)),
        (["transform", f("rnd.dg"), "--op", "clique-sub-all", "-o", f("rndsub.dg")],
         _header(266, 1923)),
        (["transform", f("q2.dg"), "--op", "clique-sub-vertex", "--vertex", "0",
          "-o", f("q2subv.dg")], _header(16, 48)),
        (["transform", f("q2.dg"), "--op", "subdivide", "--m", "2", "-o", f("q2m2.dg")],
         _header(56, 84)),
        (["transform", f("c12.dg"), "--op", "subdivide", "--m", "3", "-o", f("c12m3.dg")],
         _header(36, 36)),
        *[(["check", f(host), "--induced", f(f"claw{i}.dg")], _free(True))
          for host in ("rndsub.dg", "q2sub.dg") for i in range(4)],
        (["check", f("rnd.dg"), "--pk", "5"], _path_witness(rnd_arcs, 5, star=False)),
        (["check", f("rnd.dg"), "--pk-star", "4"], _path_witness(rnd_arcs, 4, star=True)),
        (["check", f("q2.dg"), "--pk-star", "3"], _path_witness(q2_arcs, 3, star=True)),
        (["solve", f("c12.dg")], _cop_number(12, 2)),
        (["solve", f("q2.dg")], _cop_number(14, 3)),
        (["solve", f("q2sub.dg")], _cop_number(42, 3)),
        # Substituting a single vertex is not cop-monotone: 3 drops to 2.
        (["solve", f("q2subv.dg")], _cop_number(16, 2)),
        (["simulate", f("q2.dg"), "--k", "3"], _trace(3, "capture")),
        (["simulate", f("q3.dg"), "--k", "3"], _trace(3, "robber-escape")),
        (["simulate", f("c12.dg"), "--k", "2"], _trace(2, "capture")),
        (["simulate", f("q2m2.dg"), "--k", "2"], _trace(2, "robber-escape")),
        (["dot", f("q3.dg"), "-o", f("q3.dot")], _dot(26, 104)),
    ]

    def op(argv, check):
        out_file = argv[argv.index("-o") + 1] if "-o" in argv else None
        label = " ".join(Path(a).name for a in argv)
        return Op(label, lambda: (*run_cli(cg, argv), out_file), check)

    # Per-call latencies here are mostly the few milliseconds of one small
    # command, which machine noise moves by a third; the latency of the
    # whole script is what stays comparable between runs.
    return Workload(ops=[op(argv, check) for argv, check in script], latency_of_pass=True)


WORKLOADS = {
    "plane-q3": plane_q3,
    "verify": verify,
    "replay": replay,
    "cli": cli,
}
