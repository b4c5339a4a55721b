"""Write one bench-trajectory entry (BENCH_<label>.json).

Run from the repository root:

    python3 bench/trajectory.py --label seed

Runs bench/run.py as an outside harness would: one fresh process per
run, --trace 0, RUNS distinct seeds from --first-seed on, each for
run_seconds of BENCHMARK.json, then one --trace 1 run per workload.  The
entry is written to bench/BENCH_<label>.json, with the commit checked
out.  For every end-to-end metric it records the values, their
median and quartiles, and the quartile spread as a share of the median;
for the times it also records the raw wall-clock figures and the median
reference-job time that run.py writes to .bench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def summary(values: list[float]) -> dict[str, object]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(ROOT / ".bench_runs" / f"{workload}-seed{seed}-trace{trace}.json",
              encoding="utf-8") as handle:
        result["detail"] = json.load(handle)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    entry: dict = {
        "label": args.label,
        "commit": commit,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": len(os.sched_getaffinity(0))},
        "run_seconds": seconds,
        "runs_per_workload": RUNS,
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        seeds = list(range(args.first_seed, args.first_seed + RUNS))
        runs = [bench_run(name, seed, seconds, 0) for seed in seeds]
        traced = bench_run(name, seeds[0], seconds, 1)
        metrics = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                   for m in bench["end_to_end"]}
        raw = {key: summary([r["detail"][key] for r in runs])
               for key in ("raw_setup_s", "raw_pass_s.p50", "raw_pass_s.tail",
                           "median_reference_s")}
        entry["workloads"][name] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "raw_wall_clock": raw,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(name, {k: round(v["median"], 4) for k, v in metrics.items()},
              "spread", {k: round(v["spread"], 4) for k, v in metrics.items()}, flush=True)
    out = BENCH / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(entry, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
