"""Run the benchmark over several workloads and seeds and print the metrics.

    python3 perfbench/sweep.py                       # every workload, seed 1
    python3 perfbench/sweep.py --seeds 1-10 --out .bench_out/runs.jsonl

Each run is one ``run.py`` invocation with the seconds of BENCHMARK.json.
The sweep prints every end-to-end metric by name and unit for each run,
then, with more than one seed, the spread table of compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.BLOCKS))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_out" / "sweep.jsonl"))
    args = parser.parse_args()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    runs, ok = [], True
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", args.out]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            detail = json.loads(proc.stdout.splitlines()[-2])
            runs.append(detail)
            ok &= detail["correct"]
            metrics = "  ".join(f"{name}={m['value']:.4g} {m['unit']}"
                                for name, m in detail["metrics"].items())
            print(f"{workload:<13} seed {seed:<3} correct={detail['correct']} "
                  f"attempted={detail['attempted']} {metrics}", flush=True)
    if args.trace == 0 and len(seed_list(args.seeds)) > 1 and runs:
        lines, _ = compare.spread_report(runs, compare.load_bounds())
        print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
