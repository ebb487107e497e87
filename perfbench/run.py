"""copgame benchmark: run one workload, or all four, and print the metrics.

    python3 perfbench/run.py --workload plane-q3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --runs 10 --out runs.jsonl

Run it from the root of a copgame checkout; the package is imported from
its src/ directory.  A run sets up several times and reports the median
set-up, then makes whole passes over the workload's calls, each call
only after the previous one returned, until --seconds have passed (at least
one pass).  Every answer is checked; a wrong answer or an exception counts
as a failed call.  Every reported time is calibrated for the machine's
drifting speed (speed.py); the printed lines give the raw times too.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 the run first measures the same way, then repeats
the passes with every public copgame function wrapped (spans.py) and
reports the per-layer metrics instead, writing the spans of the traced
passes to .perfbench_work/.  Exit code 0: every answer was right; 1: some
answer was wrong (the JSON line says how many); 2: the run could not start.

--workload all runs each workload in a fresh process, one after another,
--runs times with seeds seed, seed + 1, ...; --out appends every result,
tagged with workload, seed and trace, to a JSON-lines file for compare.py.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from spans import Recorder, layer_metrics, per_layer_names, tracing  # noqa: E402
from stats import percentile, tail_rung  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)
MAX_REPORTED_FAILURES = 3


class SetupError(Exception):
    """The workload cannot be set up in this checkout."""


def import_copgame():
    """Import copgame afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "copgame" or n.startswith("copgame.")]:
        del sys.modules[name]
    try:
        cg = importlib.import_module("copgame")
        importlib.import_module("copgame.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import copgame from {SRC}: {exc}") from None
    if not Path(cg.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"copgame was imported from {cg.__file__}, not from {SRC}")
    return cg


def set_up(name: str, seed: int, work: Path, meter):
    """Import copgame and build the workload's inputs, at least
    SETUP_REPEATS times and until SETUP_MIN_S seconds have been spent.

    Returns the last workload and the median raw set-up time in seconds.
    """
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        stolen, t0 = meter.stolen_ns, time.perf_counter_ns()
        cg = import_copgame()
        workload = WORKLOADS[name](cg, seed, work)
        times.append((time.perf_counter_ns() - t0 - (meter.stolen_ns - stolen)) / 1e9)
    return workload, statistics.median(times)


class Tally:
    """Calls attempted and failed, with the first few failures reported."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, label: str, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED {label} {detail}".rstrip(), file=sys.stderr)


def measure(ops, seconds: float, tally: Tally, meter=None):
    """Closed loop over whole passes until `seconds` have passed.

    Returns one (wall ns, call latencies in ns, speed factor) per pass.  A
    pass's wall time is the sum of its calls' latencies; the answer checks
    run between calls, outside the timed regions.  With a running meter,
    the probes' time is taken out of the latencies and the speed factor
    calibrates the pass; without one the factor is 1.
    """
    passes = []
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    while True:
        first = len(meter.samples) if meter else 0
        wall, latencies = 0, []
        for op in ops:
            stolen = meter.stolen_ns if meter else 0
            t0 = clock()
            try:
                out = op.call()
            except Exception:
                dt = clock() - t0
                tally.record(False, op.label, traceback.format_exc())
            else:
                dt = clock() - t0
                try:
                    ok, detail = bool(op.check(out)), "wrong answer"
                except Exception:
                    ok, detail = False, traceback.format_exc()
                tally.record(ok, op.label, detail)
            if meter:
                dt -= meter.stolen_ns - stolen
            wall += dt
            latencies.append(dt)
        passes.append((wall, latencies, meter.factor_since(first) if meter else 1.0))
        if clock() >= deadline:
            return passes


def end_to_end(setup_s, passes, workload):
    """The end-to-end metrics from calibrated times, and notes giving the
    raw times and the tail percentile read."""
    if workload.latency_of_pass:
        latencies = [wall * f for wall, _, f in passes]
        per_pass = 1
    else:
        latencies = [dt * f for _, lat, f in passes for dt in lat]
        per_pass = len(workload.ops)
    rung = tail_rung(per_pass)
    p = 100.0 if rung is None else rung
    metrics = {
        "setup_s": setup_s[0],
        "wall_s": statistics.median(wall * f for wall, _, f in passes) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": percentile(latencies, 50.0) / 1e6,
        "op_tail_ms": percentile(latencies, p) / 1e6,
    }
    raw_wall = statistics.median(wall for wall, _, _ in passes) / 1e9
    factor = statistics.median(f for _, _, f in passes)
    unit = "passes" if workload.latency_of_pass else "calls"
    notes = {
        "setup_s": f"calibrated; raw {setup_s[1]:.6g} s",
        "wall_s": f"calibrated median of {len(passes)} passes; raw {raw_wall:.6g} s, "
                  f"speed factor {factor:.4g}",
        "op_tail_ms": f"p{p:g} of {len(latencies)} {unit}, {per_pass} per pass",
    }
    return metrics, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Set up and measure one workload; returns (tally, metrics, units, notes).

    The traced passes run without the speed meter, whose probes would land
    inside the spans; their per-layer times are raw.
    """
    tally = Tally()
    with speed.Meter() as meter:
        workload, setup_raw = set_up(name, seed, work, meter)
        setup_s = (setup_raw * meter.factor_since(0), setup_raw)
        passes = measure(workload.ops, seconds, tally, meter)
    metrics, notes = end_to_end(setup_s, passes, workload)
    units = dict(END_TO_END)
    if trace:
        recorder = Recorder()
        with tracing(recorder):
            traced = measure(workload.ops, seconds, tally)
        for label, check in workload.trace_checks:
            tally.record(bool(check(recorder.spans)), f"trace check: {label}")
        traced_walls = [wall for wall, _, _ in traced]
        metrics = layer_metrics(recorder.spans, sum(traced_walls), len(traced))
        metrics["bench.trace_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(wall for wall, _, _ in passes) - 1.0
        )
        units = dict(per_layer_names())
        notes = {
            "bench.traced_wall_s": f"raw mean of {len(traced)} traced passes",
            "bench.trace_overhead_frac": "raw traced / raw untraced pass medians - 1",
        }
        recorder.write(WORK_ROOT / f"spans-{name}-s{seed}.jsonl")
    return tally, metrics, units, notes


def report(name, seed, tally, metrics, units, notes) -> dict:
    """Print the metrics by name with units; return the result object."""
    print(f"workload {name}  seed {seed}")
    for key, value in metrics.items():
        extra = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<28} {value:>14.6g} {units[key]}{extra}")
    frac = tally.failed / tally.attempted
    print(f"  {'failed_frac':<28} {frac:>14.6g} ratio  ({tally.failed} of {tally.attempted} calls)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    work = WORK_ROOT / f"{args.workload}-run"
    try:
        tally, metrics, units, notes = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = report(args.workload, args.seed, tally, metrics, units, notes)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for seed in range(args.seed, args.seed + args.runs):
        for name in WORKLOADS:
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode not in (0, 1) or not lines:
                print(f"workload {name} seed {seed}: exit code {proc.returncode}", flush=True)
                status = 2
                continue
            status = max(status, proc.returncode)
            if args.out:
                tagged = {"workload": name, "seed": seed, "trace": args.trace, **json.loads(lines[-1])}
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(tagged) + "\n")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="copgame benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="with --workload all: seeds per workload")
    parser.add_argument("--out", help="with --workload all: append results to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds and --runs must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    WORK_ROOT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
