"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads train_micro infer_micro --seeds 1 2 3 4 5

For every workload and metric it prints the median, the quartiles as
statistics.quantiles(n=4) gives them, and (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json. Runs are sequential, one process at a
time; each run's wall time is reported too. Results go to --out as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_work", "spread.json"))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s, "
                  f"correct={runs[-1]['correct']}", file=sys.stderr, flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            row = {"values": values, "median": statistics.median(values)}
            if len(values) >= 2 and row["median"]:
                row["spread"] = quartile_spread(values)
            rows[name] = row
        walls = [r["wall_s"] for r in runs]
        report[workload] = {"metrics": rows, "wall_s": walls,
                            "all_correct": all(r["correct"] for r in runs)}
        print(f"\n{workload}  wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s, all correct: {report[workload]['all_correct']}")
        for name, row in rows.items():
            bound = bounds.get(name)
            spread = row.get("spread", float("nan"))
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:<36} median {row['median']:>14.6g}  spread {spread:8.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
