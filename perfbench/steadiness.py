"""Run the benchmark several times per workload and report each metric's spread.

    python3 perfbench/steadiness.py --runs 10 --first-seed 100 [--label set1]

Runs go one at a time, untraced, cycling through the workloads of
BENCHMARK.json so that a slow spell of the host falls on all of them. For
every end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
and writes all of it with every run's result and wall time to
perfbench/out/steadiness-<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--label", default="steadiness")
    parser.add_argument("--workloads", nargs="*", help="default: every workload of BENCHMARK.json")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("quartiles need at least two runs")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            cmd = [*bench["command"], "--workload", w, "--seed", str(args.first_seed + i),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.exit(f"{w} seed {args.first_seed + i} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append({**result, "elapsed_s": elapsed})
            print(w, args.first_seed + i, f"{elapsed:.1f}s", json.dumps(result), flush=True)

    report = {}
    for w, runs in results.items():
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
        failed_share = sorted({r["failed"] / r["attempted"] for r in runs})
        report[w] = {"metrics": metrics, "failed_share": failed_share, "all_correct": all(r["correct"] for r in runs)}
        for name, s in metrics.items():
            print(f"{w:18s} {name:32s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}"
                  f"  spread {s['spread']:.3f}")
        print(f"{w:18s} failed share {failed_share}, all correct {report[w]['all_correct']}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.label}.json").write_text(json.dumps({"summary": report, "runs": results}, indent=1))


if __name__ == "__main__":
    main()
