"""Measure every workload on several seeds and summarise it as a baseline.

    python3 perfbench/baseline.py --runs 10 --seconds 28 --out perfbench/BASELINE.json

Untraced runs use seeds 1..runs, seed-major, so a slow spell of the machine
is spread over the workloads instead of landing on one.  Then one traced run
per workload (seed 1) gives the per-layer metrics.  For each end-to-end
metric the summary holds the median and quartiles over the runs and the
spread: the interquartile distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} wrong outputs")
    return json.loads(lines[-2])["environment"], result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    environment = None
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            environment, result = bench(workload, seed, args.seconds, 0)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values[workload].items()},
                  flush=True)
    per_layer = {}
    for workload in workloads:
        _, result = bench(workload, 1, args.seconds, 1)
        per_layer[workload] = {name: m["value"] for name, m in result["metrics"].items()}

    summary = {
        "environment": {key: environment[key] for key in ("python", "commit", "src_sha1", "nproc")},
        "runs": args.runs,
        "seconds": args.seconds,
        "end_to_end": {w: {name: summarise(v) for name, v in values[w].items()}
                       for w in workloads},
        "per_layer": per_layer,
    }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    for workload in workloads:
        spreads = {name: round(s["spread"], 3)
                   for name, s in summary["end_to_end"][workload].items()}
        print(workload, spreads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
