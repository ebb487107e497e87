"""Command line front end: generate, transform, check, solve, simulate,
verify.  Digraphs travel in the arc-list format; results are JSON on
stdout.  Exit codes: 0 success / all assertions hold, 1 a verification
suite found a violation, 2 input or resource error, including an output
that cannot be written."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .constructions import (
    clique_substitute_all,
    clique_substitute_vertex,
    gen_claw_orientations,
    gen_directed_cycle,
    gen_directed_path,
    gen_projective_plane_incidence_doubled,
    gen_random_digraph,
    subdivide_arcs,
)
from .digraph import format_arc_list, parse_arc_list, to_dot
from .errors import InputError, StateBudgetExceeded
from .harness import (
    RUN_ORDER,
    _report_dir,
    config_with_overrides,
    run_suite,
    write_reports,
)
from .patterns import find_induced, find_pk_star, find_pk_subgraph
from .solver import DEFAULT_STATE_BUDGET, _first_winning_result, play_trace


def _read_digraph(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (bad byte at offset {exc.start})") from None
    return parse_arc_list(text, source=str(path))


def _emit(text, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _claw(index):
    claws = gen_claw_orientations()
    if not 0 <= index < len(claws):
        raise InputError(f"--index must be in 0..{len(claws) - 1}")
    return claws[index]


# A gen family or transform op: the flags it reads and the call they feed.
# Each call names its library function inside a lambda, so that it looks the
# name up when it runs and sees the module's binding of that moment.
_GEN = {
    "path": (("k",), lambda k: gen_directed_path(k)),
    "cycle": (("n",), lambda n: gen_directed_cycle(n)),
    "claw": (("index",), _claw),
    "plane": (("q",), lambda q: gen_projective_plane_incidence_doubled(q)),
    "random": (("n", "p", "seed"), lambda n, p, seed: gen_random_digraph(n, p, seed)),
}
_TRANSFORM = {
    "clique-sub-vertex": (("vertex",), lambda d, vertex: clique_substitute_vertex(d, vertex)),
    "clique-sub-all": ((), lambda d: clique_substitute_all(d)),
    "subdivide": (("m",), lambda d, m: subdivide_arcs(d, m)),
}

# A check flag: its search, the JSON "check" name and the JSON key of its value.
_CHECK = {
    "induced": (lambda d, path: find_induced(d, _read_digraph(path)), "induced", "pattern"),
    "pk": (lambda d, k: find_pk_subgraph(d, k), "pk-subgraph", "k"),
    "pk_star": (lambda d, k: find_pk_star(d, k), "pk-star", "k"),
}


def _call(entry, args, *lead):
    """Call the entry on lead and then on the flags it reads, in order;
    refuse the first flag that was left out."""
    flags, call = entry
    for flag in flags:
        if getattr(args, flag) is None:
            raise InputError(f"--{flag} is required for this family")
    return call(*lead, *(getattr(args, flag) for flag in flags))


def _cmd_gen(args):
    _emit(format_arc_list(_call(_GEN[args.family], args)), args.output)
    return 0


def _cmd_transform(args):
    d = _read_digraph(args.input)
    _emit(format_arc_list(_call(_TRANSFORM[args.op], args, d)), args.output)
    return 0


def _cmd_check(args):
    d = _read_digraph(args.input)
    given = [(flag, getattr(args, flag)) for flag in _CHECK if getattr(args, flag) is not None]
    if len(given) != 1:
        raise InputError("give exactly one of --induced, --pk, --pk-star")
    [(flag, value)] = given
    search, check, key = _CHECK[flag]
    witness = search(d, value)
    payload = {"check": check, key: value, "free": witness is None}
    payload["witness"] = None if witness is None else list(witness.vertices)
    payload["kind"] = None if witness is None else witness.kind
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_solve(args):
    d = _read_digraph(args.input)
    k_max = args.k_max if args.k_max is not None else d.n
    result = _first_winning_result(d, k_max, args.state_budget)
    payload = {
        "n": d.n,
        "k_max": k_max,
        "cop_number": None if result is None else result.k,
        "placement": None if result is None else list(result._first_winning_placement()),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_simulate(args):
    d = _read_digraph(args.input)
    trace = play_trace(d, args.k, args.max_rounds, args.state_budget)
    payload = {
        "k": trace.k,
        "cops_start": list(trace.cops_start),
        "robber_start": trace.robber_start,
        "outcome": trace.outcome,
        "repeat": None if trace.repeat is None else list(trace.repeat),
        "snapshots": [
            {"cops": list(p.cops), "robber": p.robber, "to_move": p.to_move}
            for p in trace.snapshots
        ],
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_dot(args):
    _emit(to_dot(_read_digraph(args.input)), args.output)
    return 0


def _cmd_verify(args):
    tokens = list(RUN_ORDER) if args.suite == "all" else [args.suite]
    k_values = None
    if args.k_values is not None:
        try:
            k_values = tuple(int(x) for x in args.k_values.split(","))
        except ValueError:
            raise InputError("--k-values must be comma-separated integers") from None
    cfgs = [
        config_with_overrides(
            token,
            trials=args.trials,
            n_max=args.n_max,
            p=args.p,
            seed=args.seed,
            state_budget=args.state_budget,
            k_values=k_values,
        )
        for token in tokens
    ]
    _report_dir(args.out_dir)
    reports = [run_suite(token, cfg) for token, cfg in zip(tokens, cfgs)]
    write_reports(reports, args.out_dir)
    for report in reports:
        print(
            f"{report.suite}: instances={report.instances_run} "
            f"violations={report.violations_found} errors={len(report.errors)}"
        )
    if any(report.violations for report in reports):
        return 1
    if any(report.errors for report in reports):
        return 2
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="copgame",
        description="Pursuit games on digraphs: generators, transformations, "
        "pattern checks, an exact solver and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated digraph as an arc list")
    p.add_argument("family", choices=tuple(_GEN))
    p.add_argument("--k", type=int, help="path vertex count")
    p.add_argument("--n", type=int, help="cycle or random vertex count")
    p.add_argument("--index", type=int, help="claw orientation 0..3")
    p.add_argument("--q", type=int, help="plane order (prime)")
    p.add_argument("--p", type=float, help="random arc probability")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("transform", help="apply a transformation to an arc list")
    p.add_argument("input")
    p.add_argument("--op", required=True, choices=tuple(_TRANSFORM))
    p.add_argument("--vertex", type=int, help="vertex for clique-sub-vertex")
    p.add_argument("--m", type=int, help="subdivision factor")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("check", help="search one forbidden pattern, emit JSON")
    p.add_argument("input")
    p.add_argument("--induced", help="arc-list file with the pattern digraph")
    p.add_argument("--pk", type=int, help="directed path subgraph length")
    p.add_argument("--pk-star", type=int, help="forward-exact path tuple length")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "solve",
        help="compute the cop number and the first winning placement, emit JSON",
        description="Print the cop number and the lexicographically first winning "
        "placement as JSON.  That placement is all zeros whenever vertex 0 reaches "
        "every vertex, which needs no further solving; otherwise the solver "
        "finishes the table to find it.",
    )
    p.add_argument("input")
    p.add_argument("--k-max", type=int, help="largest cop count to try (default n)")
    p.add_argument("--state-budget", type=int, default=DEFAULT_STATE_BUDGET)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("simulate", help="play out the game, emit a JSON trace")
    p.add_argument("input")
    p.add_argument("--k", type=int, required=True, help="cop count")
    p.add_argument("--max-rounds", type=int, help="round cap (default: none)")
    p.add_argument("--state-budget", type=int, default=DEFAULT_STATE_BUDGET)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("dot", help="write Graphviz source for an arc list")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("verify", help="run verification suites, write CSV reports")
    p.add_argument("--suite", default="all", choices=("all",) + RUN_ORDER)
    p.add_argument("--trials", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--k-values", help="comma-separated, e.g. 3,4")
    p.add_argument("--state-budget", type=int)
    p.add_argument("--out-dir", default="verify_out")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, StateBudgetExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
