"""Tests of the benchmark's own logic: span self time, tracing through
module globals, failure counting, tail-percentile selection, the
parent-versus-change verdict, speed calibration, and the metric list in
BENCHMARK.json."""

import json
import sys
import time
from pathlib import Path

import copgame
from copgame import solver

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
from workloads import Op, Workload  # noqa: E402


def test_self_time_with_nested_spans():
    # outer 0..100 holds children 10..40 and 50..60; the pass took 130.
    ticks = iter([0, 10, 40, 50, 60, 100])
    rec = spans.Recorder(clock=lambda: next(ticks))
    inner = rec.wrap(lambda: None, "digraph.count_sources")
    search = rec.wrap(lambda: None, "patterns.find_pk_star")

    def body():
        inner()
        search()

    rec.wrap(body, "solver.cop_number")()
    m = spans.layer_metrics(rec.spans, wall_ns=130)
    assert round(m["solver.self_s"] * 1e9) == 60
    assert round(m["digraph.self_s"] * 1e9) == 30
    assert round(m["patterns.self_s"] * 1e9) == 10
    assert round(m["bench.self_s"] * 1e9) == 30
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert abs(layers + m["bench.self_s"] - m["bench.traced_wall_s"]) < 1e-15
    assert m["patterns.witness_frac"] == 0.0
    assert [s[spans.PARENT] for s in rec.spans] == [-1, 0, 0]


def test_tracing_reaches_intra_module_globals_and_restores_them():
    original = solver.solve
    rec = spans.Recorder()
    d = copgame.gen_directed_cycle(4)
    with spans.tracing(rec):
        c = copgame.cop_number(d, k_max=4)
    assert solver.solve is original
    names = [s[spans.NAME] for s in rec.spans]
    assert names[0] == "solver.cop_number"
    assert names[1:] == ["solver.solve"] * c
    assert all(s[spans.PARENT] == 0 for s in rec.spans[1:])
    assert rec.spans[-1][spans.NOTE] == (c, len(list(solver.solve(d, c).positions())))
    m = spans.layer_metrics(rec.spans, wall_ns=rec.spans[0][spans.END] - rec.spans[0][spans.START])
    assert m["solver.useful_solve_frac"] == 1 / c
    assert m["solver.calls"] == 1 + c


def test_injected_wrong_answer_counts_in_failed_frac(capsys):
    d = copgame.gen_directed_cycle(4)
    right = copgame.cop_number(d, k_max=4)
    ops = [
        Op("right", lambda: copgame.cop_number(d, k_max=4), lambda c: c == right),
        Op("injected", lambda: copgame.cop_number(d, k_max=4) + 1, lambda c: c == right),
        Op("raises", lambda: copgame.cop_number(d, k_max=0), lambda c: True),
    ]
    tally = bench.Tally()
    passes = bench.measure(ops, 1e-9, tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert len(passes) == 1 and len(passes[0][1]) == 3
    metrics, _ = bench.end_to_end((0.5, 0.5), passes, Workload(ops))
    units = dict(bench.END_TO_END)
    result = bench.report("injected", 0, tally, metrics, units, {})
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert "failed_frac" in capsys.readouterr().out


def test_tail_rung_needs_ten_samples_beyond():
    assert stats.tail_rung(500) == 95.0  # p99 would leave 5 beyond
    assert stats.tail_rung(999) == 95.0
    assert stats.tail_rung(1000) == 99.0
    assert stats.tail_rung(152) == 90.0
    assert stats.tail_rung(32) == 50.0
    assert stats.tail_rung(5) is None
    values = list(range(1, 501))
    assert stats.percentile(values, stats.tail_rung(len(values))) == 475
    assert stats.percentile(values, 100.0) == 500


def test_verdict_rules():
    parent = [100.0 + i % 3 for i in range(10)]
    pairs = lambda change: list(zip(parent, change))  # noqa: E731
    faster = [80.0 + i % 3 for i in range(10)]
    assert stats.verdict(parent, faster, pairs(faster), "lower", 0.1) == ("improved", 1.0)
    slower = [120.0 + i % 3 for i in range(10)]
    assert stats.verdict(parent, slower, pairs(slower), "lower", 0.1)[0] == "worse"
    assert stats.verdict(parent, slower, pairs(slower), "higher", 0.1)[0] == "improved"
    assert stats.verdict(parent, parent, pairs(parent), "lower", 0.1) == ("unchanged", 0.0)
    wide = [50.0, 150.0] * 5
    assert stats.verdict(wide, wide, list(zip(wide, wide)), "lower", 0.1)[0] == "unresolved"
    # Too few pairs to claim a gain.
    assert stats.verdict(parent, faster, pairs(faster)[:5], "lower", 0.1)[0] == "unchanged"


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_probe_time_is_taken_out_of_latencies_and_calibrates_them():
    meter = speed.Meter()

    def call():
        time.sleep(0.02)
        meter.stolen_ns += 15_000_000  # as if a probe had run for 15 ms
        meter.samples.extend([2 * speed.PROBE_NOMINAL_S] * speed.MIN_SAMPLES)

    tally = bench.Tally()
    passes = bench.measure([Op("sleep", call, lambda out: True)], 1e-9, tally, meter)
    (wall, latencies, factor), = passes
    assert 0 < latencies[0] == wall < 15_000_000
    assert factor == 0.5  # probes ran twice as slow as nominal
    metrics, _ = bench.end_to_end((0.1, 0.2), passes, Workload([]))
    assert metrics["wall_s"] == wall * 0.5 / 1e9
    assert metrics["setup_s"] == 0.1
