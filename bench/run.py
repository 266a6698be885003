"""Benchmark of cellres: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verdict --seed 1 --seconds 15 --trace 0

    for w in variable-count verdict existence-3d guard; do
        python3 bench/run.py --workload $w --seed 1; done

Self-tests of the benchmark itself: python3 bench/selftest.py.

Workloads (see workloads.py): variable-count, verdict, existence-3d, guard.
The seed draws a vertex relabelling for every input instance of every
pass; answers are mapped back before they are checked.  A run is a number
of passes over the workload's fixed op list, each with its own relabelled
inputs; the number is --seconds divided by the workload's charge per pass
(workloads.py), so it depends on --seconds only and every run of a workload
does the same work.  Passes run one after another, each in a fresh worker
process that runs its ops serially and in-process: whole processes differ
in speed by more than passes within one process do, and a median over
several processes evens that out.

--trace 0 reports the end-to-end metrics:
  wall_s       median over passes of the time to finish the op list
  op_p50_ms    median over the ops of each op's median latency
  op_tail_ms   the same per-op latencies at the highest percentile with 10
               ops beyond it; a list of fewer than 20 ops reports its
               slowest op
  setup_s      median of 7 fresh processes that import cellres and build,
               serialise and write the seeded inputs of one pass
  peak_rss_mb  highest peak resident memory of the pass processes
--trace 1 runs one untraced and one traced pass in this process and reports
the per-layer metrics (tracing.py), the tracing overhead, a serial and a
jobs=2 pass of the 7-gon with chord (0,3), and source line counts; spans go
to .bench_work/traces/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  An op fails when its answer or exit code is
wrong or when it exceeds its time limit; failed_share, printed above that
line, is failed / attempted.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # worker modes, started by this script in fresh processes: time one
    # set-up, or run one pass and report it as JSON
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--pass", dest="pass_no", type=int,
                   help=argparse.SUPPRESS)
    # negate the first op's check, so a right answer counts as wrong (used
    # by selftest.py to show that wrong answers are caught)
    p.add_argument("--plant-wrong", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def load(args, workdir: Path, pass_no: int, tracer: Tracer = None):
    """Import cellres and build one pass's ops; returns (cr, ops)."""
    cr = workloads.load_cellres()
    origin = Path(cr.cli.__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"cellres imported from {origin}, not from {SRC}")
    if tracer is not None:
        tracer.install()
        sid = tracer.open("bench.setup")
    ops = workloads.build_ops(cr, args.workload, args.seed, workdir, pass_no)
    if tracer is not None:
        tracer.close(sid)
    if args.plant_wrong:
        right = ops[0].check
        ops[0].check = lambda outcome: (
            "planted wrong expectation" if right(outcome) is None else None)
    return cr, ops


def worker(args, *mode) -> str:
    """Run this script in a fresh process in a worker mode; its stdout."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *mode]
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=ROOT)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(mode)} worker exited "
                           f"{done.returncode}")
    return done.stdout


class Tally:
    """Latencies and failures of every op run."""

    def __init__(self):
        self.latencies = []
        self.wrong = 0
        self.failed = 0

    def run_pass(self, ops, tracer: Tracer = None) -> float:
        """Run the op list once; returns the pass's wall time."""
        gc.collect()
        outcomes = []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                outcome = op.run()
            except Exception as exc:  # an op that raises is a failed op
                outcome = exc
                traceback.print_exc(file=sys.stderr)
            outcomes.append((outcome, time.perf_counter() - t0))
        wall = time.perf_counter() - start
        for op, (outcome, took) in zip(ops, outcomes):
            self.latencies.append(took)
            error = self.check(op, outcome)
            if error is not None:
                self.wrong += 1
                print(f"WRONG {op.name}: {error}", file=sys.stderr)
            elif took > op.limit_s:
                print(f"SLOW {op.name}: {took:.2f} s > {op.limit_s} s",
                      file=sys.stderr)
            self.failed += error is not None or took > op.limit_s
        return wall

    @staticmethod
    def check(op, outcome):
        if isinstance(outcome, Exception):
            return f"raised {outcome!r}"
        try:
            return op.check(outcome)
        except Exception as exc:  # a malformed answer is a wrong answer
            return f"check raised {exc!r}"

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.wrong == 0,
            "attempted": len(self.latencies),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
        }


def tail(latencies: list):
    """(value, percentile, ops beyond) at the highest percentile that still
    has 10 ops beyond it.  Below 20 ops that percentile would not lie above
    the median, so the slowest op is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def passes_for(args) -> int:
    _, charge = workloads.WORKLOADS[args.workload]
    return max(1, round(args.seconds / charge))


def end_to_end(args):
    setups = [float(worker(args, "--setup-probe"))
              for _ in range(SETUP_PROBES)]
    runs = [json.loads(worker(args, "--pass", str(p)))
            for p in range(passes_for(args))]
    tally = Tally()
    for r in runs:
        tally.latencies += r["latencies"]
        tally.wrong += r["wrong"]
        tally.failed += r["failed"]
    walls = [r["wall"] for r in runs]
    n = len(runs[0]["latencies"])
    per_op = [statistics.median(tally.latencies[i::n]) for i in range(n)]
    value, pct, beyond = tail(per_op)
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": value * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }
    units = {"wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}
    notes = {
        "wall_s": f"median of {len(walls)} passes of {n} ops: "
                  + " ".join(f"{w:.3f}" for w in walls),
        "op_p50_ms": f"median of {n} per-op medians",
        "op_tail_ms": f"p{pct:.1f} of {n} per-op medians, "
                      f"{beyond} beyond it",
        "setup_s": f"median of {len(setups)} fresh processes",
    }
    return tally, metrics, units, notes


def source_lines() -> dict:
    lines = {}
    for path in sorted((SRC / "cellres").glob("*.py")):
        name = "init" if path.stem == "__init__" else path.stem
        lines[f"{name}.src_lines"] = len(path.read_text().splitlines())
    lines["cellres.src_lines"] = sum(lines.values())
    return lines


def per_layer(args, workdir: Path):
    tracer = Tracer()
    cr, ops = load(args, workdir, 0, tracer)
    tracer.uninstall()
    tally = Tally()
    untraced = tally.run_pass(ops)
    tracer.install()
    traced = tally.run_pass(ops, tracer)
    tracer.uninstall()
    jobs = workloads.jobs_ops(
        workloads.Inputs(cr, args.seed, workdir, "jobs"))
    serial, parallel = (tally.run_pass([op]) for op in jobs)
    metrics = tracer.metrics()
    metrics["search.jobs2_speedup"] = serial / parallel
    metrics["trace.overhead_s"] = traced - untraced
    metrics.update(source_lines())
    trace_dir = ROOT / ".bench_work" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_file)
    units = {k: _unit(k) for k in metrics}
    notes = {"trace.overhead_s":
             f"traced pass {traced:.3f} s minus untraced pass "
             f"{untraced:.3f} s; spans in {trace_file.relative_to(ROOT)}"}
    return tally, metrics, units, notes


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    if name.endswith("_speedup"):
        return "x"
    if name.endswith("src_lines"):
        return "lines"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cellres" / "__init__.py").is_file():
        print(f"no cellres sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # relative and of fixed length, so reports that echo input paths have
    # the same size in every run
    workdir = Path(".bench_work") / f"{os.getpid():08d}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            start = time.perf_counter()
            load(args, workdir, 0)
            print(time.perf_counter() - start)
            return 0
        if args.pass_no is not None:
            _, ops = load(args, workdir, args.pass_no)
            tally = Tally()
            wall = tally.run_pass(ops)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(json.dumps({"wall": wall, "latencies": tally.latencies,
                              "wrong": tally.wrong, "failed": tally.failed,
                              "peak_rss_mb": rss}))
            return 0
        if args.trace:
            tally, metrics, units, notes = per_layer(args, workdir)
        else:
            tally, metrics, units, notes = end_to_end(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:.6g} {units[name]}{note}")
    attempted = len(tally.latencies)
    print(f"  {'failed_share':32s} {tally.failed / attempted:.6g} "
          f"({tally.failed} of {attempted} ops)")
    print(json.dumps(tally.result(metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
