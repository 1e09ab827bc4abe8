"""Compare benchmark runs, or report the spread of one set of runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl   # base vs change
    python3 perfbench/compare.py RUNS.jsonl             # spread only

The files hold the detail records run.py appends with ``--out``.  For
each workload and end-to-end metric the report gives the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  Against a
base, a metric whose median got worse by more than its bound in
BENCHMARK.json is a regression; one whose base spread is wider than the
bound is unresolved.  Runs are compared only when their manifests agree
on Python version and CPU count; otherwise the comparison is refused.
Tail latencies taken at different percentiles are reported as
incomparable, which fails the comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("python", "implementation", "nproc")


def load_bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(path) -> list[dict]:
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    return [r for r in runs if r.get("trace") == 0]


def manifests_agree(runs: list[dict]) -> str | None:
    """None when every run has the same Python and CPU count, else why not."""
    seen = {tuple(r["manifest"].get(k) for k in MUST_MATCH) for r in runs}
    if len(seen) > 1:
        return f"manifests differ in {', '.join(MUST_MATCH)}: {sorted(map(str, seen))}"
    return None


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("inf")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}


def by_workload(runs: list[dict]) -> dict:
    grouped: dict = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            grouped.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    return grouped


def spread_report(runs: list[dict], bounds: dict) -> tuple[list[str], bool]:
    """Lines of the spread table, and whether every spread is under a third of its bound."""
    lines, steady = [], True
    for workload, metrics in sorted(by_workload(runs).items()):
        lines.append(f"{workload}")
        for name, values in metrics.items():
            s = summarize(values)
            bound = bounds[name]["bound"]
            ok = s["spread"] <= bound / 3
            steady &= ok
            lines.append(f"  {name:<20} {s['median']:>12.4f} {bounds[name]['unit']:<6}"
                         f" q1 {s['q1']:>11.4f} q3 {s['q3']:>11.4f}  spread {s['spread']:6.3f}"
                         f" (bound {bound}){'' if ok else '  WIDE'}  n={s['n']}")
    return lines, steady


def compare_report(base: list[dict], new: list[dict], bounds: dict) -> tuple[list[str], bool]:
    lines, ok_all = [], True
    base_w, new_w = by_workload(base), by_workload(new)
    for workload in sorted(base_w):
        lines.append(workload)
        tails = sorted({r["latency"]["tail_percentile"] for r in base + new
                        if r["workload"] == workload})
        for name, base_values in base_w[workload].items():
            new_values = new_w.get(workload, {}).get(name)
            if not new_values:
                lines.append(f"  {name:<20} missing in the new runs")
                ok_all = False
                continue
            b, n = summarize(base_values), summarize(new_values)
            spec = bounds[name]
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * (n["median"] - b["median"]) / b["median"] if b["median"] else 0.0
            if name == "latency_tail_ms" and len(tails) > 1:
                verdict, ok_all = f"incomparable (tail percentiles {tails})", False
            elif worse > spec["bound"]:
                verdict, ok_all = "REGRESSED", False
            elif b["spread"] > spec["bound"]:
                verdict = "unresolved (base spread wider than bound)"
            else:
                verdict = "ok"
            lines.append(f"  {name:<20} base {b['median']:>11.4f} new {n['median']:>11.4f}"
                         f" {spec['unit']:<6} worse by {worse:+.3f} (bound {spec['bound']}) {verdict}")
    return lines, ok_all


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="RUNS, or BASE NEW")
    args = parser.parse_args()
    if len(args.files) > 2:
        parser.error("give one file (spread) or two files (base, new)")
    bounds = load_bounds()
    sets = [load_runs(f) for f in args.files]
    problem = manifests_agree([r for runs in sets for r in runs])
    if problem:
        print(f"refused: {problem}", file=sys.stderr)
        return 2
    if len(sets) == 1:
        lines, ok = spread_report(sets[0], bounds)
    else:
        lines, ok = compare_report(sets[0], sets[1], bounds)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
