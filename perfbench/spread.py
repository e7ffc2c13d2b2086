"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 1] [--out FILE]

For every workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json; --out also writes them as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, result {result}", file=sys.stderr)
                return 1
            runs.append(result)
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            metrics[name] = {"unit": entry["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": spread, "values": values}
            bound = bounds.get(name)
            print(f"{workload:<13} {name:<42} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.3f}" + (f" bound {bound}" if bound else ""))
        summary[workload] = {"seeds": args.seeds, "attempted": [r["attempted"] for r in runs],
                             "metrics": metrics}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
