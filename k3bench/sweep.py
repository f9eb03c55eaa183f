"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 k3bench/sweep.py --workloads theorem-wide --seeds 1-5 --seconds 20

For every workload and metric it prints the median of the runs, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median.  ``--out FILE`` also writes the
raw per-run results as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="theorem-wide,verify-mutants,"
                                               "destabilize-grid")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    results: dict[str, list[dict]] = {}
    status = 0
    for workload in args.workloads.split(","):
        runs = results.setdefault(workload, [])
        for seed in seeds_of(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", args.seconds,
                   "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            status |= not result["correct"]
            runs.append(result)
        if len(runs) < 2:
            continue
        print(f"{workload}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values)
            print(f"  {name:<54} median {s['median']:12.4f}  "
                  f"q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}  "
                  f"spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
