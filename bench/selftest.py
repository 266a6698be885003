"""Self-tests of the benchmark.

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (all four by default) two traced runs on one seed must
report identical counts: oracle calls and misses, rank calls, family
counts, lcm points, bytes written, line counts and the ratios of counts.
A run with a planted wrong expected answer must report failed > 0 and
correct false.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
EXACT_UNITS = ("count", "ratio", "bytes", "lines")
SEED = 11


def run(*args) -> dict:
    done = subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    problems = []
    for name in names:
        args = ("--workload", name, "--seed", str(SEED), "--seconds", "1",
                "--trace", "1")
        first, second = run(*args), run(*args)
        for res in (first, second):
            if not res["correct"] or res["failed"]:
                problems.append(f"{name}: traced run failed ops")
        exact = [k for k, m in first["metrics"].items()
                 if m["unit"] in EXACT_UNITS]
        differ = [k for k in exact
                  if first["metrics"][k] != second["metrics"].get(k)]
        if differ:
            problems.append(f"{name}: counts differ between runs: {differ}")
        print(f"{name}: {len(exact)} counts repeat"
              + ("" if not differ else f", {len(differ)} differ"))
    planted = run("--workload", names[0], "--seed", str(SEED), "--seconds",
                  "1", "--trace", "0", "--plant-wrong")
    if planted["failed"] == 0 or planted["correct"]:
        problems.append("a planted wrong answer went unnoticed")
    print(f"planted wrong answer: failed {planted['failed']} of "
          f"{planted['attempted']}, correct {planted['correct']}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
