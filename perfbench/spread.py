"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--first-seed 1] [--seconds 20]

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its median, quartiles (``statistics.quantiles(n=4)``) and
sample count over the runs, and the quartile distance as a share of the
median next to the metric's bound in ``BENCHMARK.json``.  Later changes quote
these figures next to any claimed gain.  The last line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values: dict = {m["name"]: [] for m in spec["end_to_end"]}
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        if result["failed"]:
            failed += result["failed"]
            print(f"seed {seed}: {result['failed']} of {result['attempted']} items failed their check")
            print("\n".join(line for line in lines if line.startswith("#")), proc.stderr, sep="\n")
            continue
        row = {name: result["metrics"][name]["value"] for name in values}
        for name, value in row.items():
            values[name].append(value)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
    summary = {}
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / median
        summary[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "n": len(vals),
                                   "iqr_share": share, "bound": metric["bound"], "unit": metric["unit"]}
        flag = "ok" if share < metric["bound"] / 3 else ("within bound" if share <= metric["bound"] else "TOO WIDE")
        print(f"{metric['name']:>12}: median {median:.6g} {metric['unit']} [q1 {q1:.6g}, q3 {q3:.6g}] "
              f"n={len(vals)} iqr/median {share:.4f} (bound {metric['bound']}) {flag}")
    print(json.dumps({"workload": args.workload, "seconds": seconds, "failed": failed, "metrics": summary}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
