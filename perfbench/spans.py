"""Outside-in span recorder for the traced run.

Every public function of the copgame modules is replaced, at every module
binding that holds it, by a wrapper that records one span per call: name,
parent span, start and end.  Rebinding every binding matters: cop_number
looks up solve in the solver module's globals, and cli and harness call the
names they imported, so patching only the package namespace would miss
most calls.  The program itself is not changed.

Not wrapped, so their time is charged to the calling span:

* classes, including Digraph (Digraph.__eq__ calls isinstance on the
  class) and SolveResult, whose per-position methods (win, rank,
  best_move, placement_wins) run millions of times;
* generator functions such as harness.iter_all_digraphs, whose work
  happens while the caller consumes them;
* private helpers (leading underscore), e.g. harness._draw.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("digraph", "constructions", "patterns", "solver", "harness", "cli")
SUITES = ("lemma1", "lemma2", "lemma3", "lemma4", "theorem1", "theorem3")
COMMANDS = ("gen", "transform", "check", "solve", "simulate", "dot", "verify")
SEARCHES = ("patterns.find_induced", "patterns.find_pk_subgraph", "patterns.find_pk_star")

# Span fields: name, parent index (-1 at top level), start ns, end ns, note.
NAME, PARENT, START, END, NOTE = range(5)


def _note_solve(args, kwargs, result):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return (k, result.num_positions)


def _note_suite(args, kwargs, result):
    return (args[0] if args else kwargs["token"], len(result.records))


def _note_replay(args, kwargs, result):
    return (args[0] if args else kwargs["token"], len(result))


def _note_main(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


def _note_search(args, kwargs, result):
    return result is not None


# What a span keeps about its call, for the functions whose metrics need it.
NOTES = {
    "solver.solve": _note_solve,
    "harness.run_suite": _note_suite,
    "harness.replay_instance": _note_replay,
    "cli.main": _note_main,
    **{name: _note_search for name in SEARCHES},
}


class Recorder:
    """Collects spans of wrapped calls; one recorder per traced pass."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, self.clock
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            i = len(spans)
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            spans.append(span)
            stack.append(i)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextmanager
def tracing(recorder: Recorder, package: str = "copgame"):
    """Rebind every public function of the package's layer modules to a
    recording wrapper for the duration of the block."""
    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    wrapped = {}
    for m in modules:
        layer = m.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for attr, obj in vars(m).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == m.__name__
                and not attr.startswith("_")
                and not inspect.isgeneratorfunction(obj)
            ):
                wrapped[obj] = recorder.wrap(obj, f"{layer}.{attr}")
    patched = []
    for m in modules:
        for attr, obj in list(vars(m).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(m, attr, wrapped[obj])
                patched.append((m, attr, obj))
    try:
        yield recorder
    finally:
        for m, attr, obj in patched:
            setattr(m, attr, obj)


def per_layer_names():
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    names += [
        ("solver.solve_s", "s"),
        *[(f"solver.solve_s.k{k}", "s") for k in range(1, 5)],
        ("solver.positions", "count"),
        ("solver.positions_per_s", "1/s"),
        ("solver.useful_solve_frac", "ratio"),
        ("solver.trace_read_s", "s"),
        ("harness.replay_s", "s"),
        ("harness.records", "count"),
        *[(f"harness.suite_s.{t}", "s") for t in SUITES],
        ("harness.write_s", "s"),
        ("patterns.search_s", "s"),
        ("patterns.witness_frac", "ratio"),
        ("constructions.transform_s", "s"),
        ("digraph.io_s", "s"),
        ("digraph.predicate_s", "s"),
        *[(f"cli.cmd_s.{c}", "s") for c in COMMANDS],
        ("bench.self_s", "s"),
        ("bench.traced_wall_s", "s"),
        ("bench.trace_overhead_frac", "ratio"),
    ]
    return names


def _outermost_s(spans, members) -> float:
    """Seconds spent in spans named in members, not counting a member span
    nested inside another member span twice."""
    total = 0
    for span in spans:
        if span[NAME] not in members:
            continue
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] not in members:
            p = spans[p][PARENT]
        if p < 0:
            total += span[END] - span[START]
    return total / 1e9


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, wall_ns: int, passes: int = 1) -> dict:
    """Per-layer metrics of the spans of `passes` traced passes that took
    wall_ns in all.  Times and counts are per pass; ratios use the totals.

    A layer's self time is the time of its spans minus the time of their
    child spans.  bench.self_s is the traced wall time outside any span,
    so the layers' self times and bench.self_s add up to
    bench.traced_wall_s.  bench.trace_overhead_frac is left at 0 for the
    caller, which alone knows the untraced wall time.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    m = {name: 0.0 for name, _ in per_layer_names()}
    for i, s in enumerate(spans):
        layer = s[NAME].partition(".")[0]
        m[f"{layer}.self_s"] += (dur[i] - child[i]) / 1e9
        m[f"{layer}.calls"] += 1
    m["bench.self_s"] = (wall_ns - sum(d for s, d in zip(spans, dur) if s[PARENT] < 0)) / 1e9
    m["bench.traced_wall_s"] = wall_ns / 1e9

    cop_number_calls = useful_den = searches = witnesses = 0
    for i, s in enumerate(spans):
        name, note = s[NAME], s[NOTE]
        if name == "solver.solve":
            if note is not None:
                k, positions = note
                if 1 <= k <= 4:
                    m[f"solver.solve_s.k{k}"] += dur[i] / 1e9
                m["solver.positions"] += positions
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "solver.cop_number":
                useful_den += 1
        elif name == "solver.cop_number":
            cop_number_calls += 1
        elif name == "solver.play_trace":
            m["solver.trace_read_s"] += (dur[i] - child[i]) / 1e9
        elif name in ("harness.run_suite", "harness.replay_instance") and note is not None:
            m["harness.records"] += note[1]
            if name == "harness.run_suite" and note[0] in SUITES:
                m[f"harness.suite_s.{note[0]}"] += dur[i] / 1e9
        elif name in SEARCHES:
            searches += 1
            witnesses += bool(note)
        elif name == "cli.main" and note in COMMANDS:
            m[f"cli.cmd_s.{note}"] += dur[i] / 1e9

    m["solver.solve_s"] = _outermost_s(spans, {"solver.solve"})
    m["harness.replay_s"] = _outermost_s(spans, {"harness.replay_instance"})
    m["harness.write_s"] = _outermost_s(
        spans, {"harness.write_reports", "harness.write_report_csv"}
    )
    m["patterns.search_s"] = _outermost_s(
        spans, {*SEARCHES, "patterns.containment_chain_check"}
    )
    m["constructions.transform_s"] = _outermost_s(spans, {
        "constructions.clique_substitute_vertex",
        "constructions.clique_substitute_all",
        "constructions.subdivide_arcs",
        "constructions.build_port_map",
    })
    m["digraph.io_s"] = _outermost_s(
        spans, {"digraph.parse_arc_list", "digraph.format_arc_list", "digraph.to_dot"}
    )
    m["digraph.predicate_s"] = _outermost_s(spans, {
        "digraph.is_strongly_connected",
        "digraph.is_weakly_connected",
        "digraph.count_sources",
        "digraph.underlying_girth",
        "digraph.neighborhood_partition",
    })

    ratios = {
        "solver.positions_per_s": _ratio(m["solver.positions"], m["solver.solve_s"]),
        "solver.useful_solve_frac": _ratio(cop_number_calls, useful_den),
        "patterns.witness_frac": _ratio(witnesses, searches),
    }
    for name in m:
        m[name] /= passes
    m.update(ratios)
    return m
