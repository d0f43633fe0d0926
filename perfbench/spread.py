"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload mc-sweep fa-design ua-design \
        --seeds 10 --seconds 30 --trace 0 --out BENCH_<label>.json

For every workload and metric it records the values, their median, the
first and third quartiles (`statistics.quantiles(values, n=4)`) and the
spread (Q3 - Q1) / median. Two such files from the same machine, one per
commit, are what a performance claim cites.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["manifest"] = json.loads(lines[0].split(" ", 1)[1])
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seeds", type=int, default=10, help="seeds 0 .. N-1")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workload:
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in range(args.seeds)]
        names = runs[0]["metrics"]
        entry = {name: {"unit": runs[0]["metrics"][name]["unit"],
                        **summarise([r["metrics"][name]["value"] for r in runs])}
                 for name in names}
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "manifest": runs[0]["manifest"],
            "metrics": entry,
        }
        for name, s in entry.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {spread}")
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
