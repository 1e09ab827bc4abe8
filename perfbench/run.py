"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload knot_ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program under test is the
``pretzel_pi1`` package in the checkout's ``src``; nothing is installed.
Each run starts fresh worker processes (see worker.py):

* a priming worker, untimed, so one-off costs of a new checkout such as
  writing bytecode caches are not counted;
* with ``--trace 0``, ``SETUPS`` workers that only set up and exit;
* the measuring worker, which runs the closed loop and reports;
* with ``--trace 0``, ``SETUPS`` more set-up-only workers.

``setup_s`` is the median start-to-ready time of all these workers but
the priming one.  Half of them run after the timed phase, so the median
spans the whole run and not one spell of the machine's speed.

The last stdout line is the result object.  The line before it is a
detail record (manifest, input sizes, latency percentile, failures),
also appended to ``--out FILE`` when given, which ``compare.py`` reads.
Exit code 0 means a result was printed; anything else means the
benchmark could not run (for example, no program in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUPS = 5             # set-up-only workers before, and again after, an untraced run
RUN_LIMIT_S = 170.0    # the whole run, all workers included, ends within this
READY_LIMIT_S = 30.0   # one worker's set-up


class BenchError(RuntimeError):
    pass


def manifest() -> dict:
    """What a comparison between two runs must hold equal, and the commit."""
    return {
        "git_head": _git_head(ROOT),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
    }


def _git_head(root: Path):
    """HEAD of the checkout read from .git directly; None outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Worker:
    """A worker process; times its start-to-READY span."""

    def __init__(self, args, mode: str, workdir: Path, hard_limit: float, env: dict):
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--mode", mode, "--root", str(ROOT),
               "--workdir", os.path.relpath(workdir, ROOT),
               "--hard-limit", str(hard_limit)]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.setup_s = self._wait_ready()

    def _wait_ready(self) -> float:
        deadline = self.start + READY_LIMIT_S
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                self.stop()
                raise BenchError(f"worker not ready within {READY_LIMIT_S:.0f} s")
            line = self.proc.stdout.readline()
            if line.strip() == b"READY":
                return time.perf_counter() - self.start
            if not line:
                _, err = self.finish(5.0)
                raise BenchError(f"worker failed during set-up:\n{err}")

    def finish(self, timeout: float) -> tuple[str, str]:
        """Wait for exit, killing the worker after ``timeout`` seconds."""
        try:
            out, err = self.proc.communicate(timeout=max(timeout, 0.1))
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError(f"worker still running after {timeout:.0f} s; killed")
        return out.decode(errors="replace"), err.decode(errors="replace")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def measure(args) -> dict:
    if not (ROOT / "src" / "pretzel_pi1" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'pretzel_pi1'} is missing")
    run_start = time.perf_counter()
    env = {k: v for k, v in os.environ.items() if k != "PRETZEL_PI1_DEPTH"}
    workdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        Worker(args, "setup", workdir, 0, env).finish(READY_LIMIT_S)  # priming
        setups = []

        def sample_setups():
            for _ in range(0 if args.trace else SETUPS):
                if time.perf_counter() - run_start > RUN_LIMIT_S - 2 * READY_LIMIT_S:
                    return  # a timed phase cut short by its hard limit left no time
                worker = Worker(args, "setup", workdir, 0, env)
                setups.append(worker.setup_s)
                worker.finish(READY_LIMIT_S)

        sample_setups()
        # the timed phase may overrun --seconds by one block; never by this much
        hard_limit = RUN_LIMIT_S - 10 - (time.perf_counter() - run_start) - READY_LIMIT_S
        worker = Worker(args, "run", workdir, hard_limit, env)
        setups.append(worker.setup_s)
        out, err = worker.finish(RUN_LIMIT_S - (time.perf_counter() - run_start))
        if worker.proc.returncode != 0:
            raise BenchError(f"worker exited with {worker.proc.returncode}:\n{err}")
        report = json.loads(out.strip().splitlines()[-1])
        sample_setups()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["setup_samples_s"] = setups
    return report


def end_to_end(report: dict) -> dict:
    """The end-to-end metrics of an untraced run.

    Throughput and CPU per request count only the time inside ``cli.main``,
    not the oracle's checks.  They are medians over the run's blocks: every
    block is the same mix of requests, and the median keeps a slow spell of
    the machine in a few blocks from moving the whole run.
    """
    lat = report["latency"]
    # no whole block (the hard limit cut the first one short): the run as one block
    blocks = report["block_stats"] or [(lat["n"], report["in_call_wall_s"],
                                        report["in_call_cpu_s"])]
    values = {
        "setup_s": (statistics.median(report["setup_samples_s"]), "s"),
        "requests_per_s": (statistics.median(n / wall for n, wall, _ in blocks), "1/s"),
        "latency_p50_ms": (lat["p50_s"] * 1000, "ms"),
        "latency_tail_ms": (lat["tail_s"] * 1000, "ms"),
        "cpu_ms_per_request": (statistics.median(cpu * 1000 / n for n, _, cpu in blocks), "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "ok_share": ((report["attempted"] - report["failed"]) / max(report["attempted"], 1),
                     "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the detail record to this JSON-lines file")
    args = parser.parse_args()
    try:
        report = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    metrics = report.pop("per_layer") if args.trace else end_to_end(report)
    correct = report["failed"] == 0 and not report["problems"] and report["attempted"] > 0
    for line in report["failures"] + report["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    detail = {"manifest": manifest(), "trace": args.trace, "seconds": args.seconds,
              "correct": correct, "metrics": metrics, **report}
    print(json.dumps(detail))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(detail) + "\n")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
