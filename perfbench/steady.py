"""Check how steady the end-to-end metrics are: run one workload N times.

    python3 perfbench/steady.py --workload star_serve --runs 10 --first-seed 1

Each run is ``perfbench/run.py`` with its own seed (``first-seed``,
``first-seed + 1``, ...), one after another.  For every end-to-end metric
the command prints the median of the runs, the first and third quartiles
(``statistics.quantiles(values, n=4)``), their distance as a share of the
median (the spread), and the metric's bound from ``BENCHMARK.json``.  A
spread under a third of the bound is steady enough; ``setup_s`` is held
only to its bound on the median, not to a spread.  It also prints the
share of failed operations, which must be the same in every run.  This is
how the bounds were set, and how to check them again after a change.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"run of {workload} seed {seed} exited {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description="Run one workload N times.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    for k in range(args.runs):
        seed = args.first_seed + k
        result = one_run(args.workload, seed, args.seconds)
        results.append(result)
        shown = ", ".join(
            f"{name} {m['value']:.4f}" for name, m in result["metrics"].items()
        )
        print(f"seed {seed}: {result['failed']}/{result['attempted']} failed; {shown}")

    worst = 0.0
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s")
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        flag = ""
        if name != "setup_s":
            worst = max(worst, spread / metric["bound"])
            flag = "" if spread < metric["bound"] / 3 else "  over a third of the bound"
        print(
            f"{name:<18} {median:12.4f} {q1:12.4f} {q3:12.4f} "
            f"{spread:8.4f} {metric['bound']:6.2f}{flag}"
        )
    shares = {(r["failed"], r["attempted"]) for r in results}
    print(f"failed/attempted per run: {sorted(shares)}")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0 if len(shares) == 1 and all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
