"""One benchmark worker: a single process driving ``pretzel_pi1.cli.main``.

The worker imports the package from the checkout's ``src``, builds the
seeded request stream, runs one fixed warm-up request and prints
``READY``; everything up to that line is set-up.  With ``--mode setup``
it stops there.  With ``--mode run`` it then drives the CLI in a closed
loop with one client (the next request starts when the previous one
returns), in whole blocks, until ``--seconds`` have passed.  Every
answer is checked against the oracle; a request that raises, runs past
the cap, exits with the wrong code or prints a wrong answer is failed.

Each request's wall and CPU time cover only its ``cli.main`` call: the
oracle check and the clean-up around it are not timed.

With ``--trace 1`` the timed phase is split in two: blocks run
untraced for a third of ``--seconds``, then the same blocks again with
the layer wrappers installed; the difference of the two wall times is the tracing
overhead.  The per-layer metrics are given per replayed block, so that
they do not grow with the number of blocks a faster program completes.
The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

# A request gets this long before it is stopped and recorded as a timeout.
REQUEST_CAP_S = 30.0


class RequestTimeout(BaseException):
    """Raised in the request by SIGALRM; BaseException so the CLI cannot catch it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


class Driver:
    """Runs requests through ``cli.main`` and checks their answers."""

    def __init__(self, cli_main, goldens, cap_s: float, before_request=None):
        self.cli_main = cli_main
        self.before_request = before_request
        self.goldens = goldens
        self.cap_s = cap_s
        self.moves_by_file: dict[str, int] = {}
        self.records: list[tuple[str, float, str]] = []  # (command, seconds, status)
        self.cpu_s = 0.0  # CPU inside cli.main, summed over requests
        self.failures: list[str] = []
        self.stdout_bytes = 0
        self.exit_codes: dict[int, int] = {}
        # (requests, wall s inside cli.main, cpu s inside cli.main)
        self.block_stats: list[tuple[int, float, float]] = []

    def run(self, request: dict) -> None:
        argv, command = request["argv"], request["command"]
        if "--jobs" in argv:
            raise ValueError("workloads never pass --jobs")
        expect = dict(request["expect"])
        if command == "derive" and expect.get("emit"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(expect["emit"])
        if command == "verify trace":
            expect["moves"] = self.moves_by_file.get(expect["file"])
        if self.before_request is not None:
            self.before_request()
        out, err = io.StringIO(), io.StringIO()
        code, status = None, "ok"
        start, cpu0 = time.perf_counter(), _cpu_s()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.cap_s)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli_main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except RequestTimeout:
            status = "timeout"
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed request, not a dead run
            status = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.cpu_s += _cpu_s() - cpu0
        text = out.getvalue()
        if status == "ok":
            self.stdout_bytes += len(text.encode())
            self.exit_codes[code] = self.exit_codes.get(code, 0) + 1
            try:
                problem = oracle.CHECKS[command](expect, code, text, self.goldens)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                problem = f"answer has an unexpected shape: {type(exc).__name__}: {exc}"
            if problem:
                status = "wrong"
                stderr_tail = err.getvalue().strip().splitlines()[-1:]
                self._fail(f"{' '.join(argv)}: {problem}"
                           + (f" [stderr: {stderr_tail[0]}]" if stderr_tail else ""))
            elif command == "derive" and expect.get("emit"):
                self.moves_by_file[expect["emit"]] = json.loads(text)["moves"]
        else:
            self._fail(f"{' '.join(argv)}: {status}")
        self.records.append((command, elapsed, status))

    def _fail(self, reason: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(reason)

    def run_blocks(self, stream, seconds: float, hard_limit_s: float, replay=None):
        """Whole blocks until ``seconds`` pass, or every block of ``replay``.

        Returns the blocks run, the wall seconds, and whether the hard limit
        cut a block short.
        """
        done = []
        start = time.perf_counter()
        hard = start + hard_limit_s
        source = iter(replay) if replay is not None else stream
        while replay is not None or time.perf_counter() - start < seconds:
            block = next(source, None)
            if block is None:
                break
            first, cpu0 = len(self.records), self.cpu_s
            for request in block:
                if time.perf_counter() > hard:
                    return done, time.perf_counter() - start, True
                self.run(request)
            in_call = sum(t for _, t, _ in self.records[first:])
            self.block_stats.append((len(block), in_call, self.cpu_s - cpu0))
            done.append(block)
        return done, time.perf_counter() - start, False


def latency_stats(records, pct: float) -> dict:
    """Median and ``pct`` tail latency (nearest rank) of every request, timeouts included."""
    times = sorted(t for _, t, _ in records)
    n = len(times)
    rank = max(1, math.ceil(pct / 100 * n))
    return {"n": n, "p50_s": statistics.median(times), "tail_s": times[rank - 1],
            "tail_percentile": pct, "beyond_tail": n - rank}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _import_cli(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    from pretzel_pi1 import cli
    package_dir = Path(cli.__file__).resolve().parent
    if src.resolve() not in package_dir.parents:
        raise ImportError(f"pretzel_pi1 was imported from {package_dir}, not from {src}")
    return cli


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark worker")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--hard-limit", type=float, required=True,
                        help="seconds after which the timed phase stops mid-block")
    args = parser.parse_args()

    root = Path(args.root)
    cli = _import_cli(root)
    goldens = oracle.Goldens(root)
    stream = workloads.blocks(args.workload, args.seed, args.workdir)
    first_block = next(stream)
    signal.signal(signal.SIGALRM, _on_alarm)
    warm = Driver(cli.main, goldens, REQUEST_CAP_S)
    for request in workloads.WARMUP[args.workload](args.workdir):
        warm.run(request)
    if warm.failures:
        print(json.dumps({"error": "warm-up request failed", "failures": warm.failures}))
        return 1
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    def replay_stream():
        yield first_block
        yield from stream

    driver = Driver(cli.main, goldens, REQUEST_CAP_S)
    result: dict = {"workload": args.workload, "seed": args.seed}
    problems: list[str] = []  # failures of the run itself, not of one request
    cpu0 = _cpu_s()
    if args.trace:
        from tracer import Tracer
        # a third of the time untraced; the traced replay of the same blocks is slower
        blocks_run, plain_wall, truncated = driver.run_blocks(
            replay_stream(), args.seconds / 3, args.hard_limit / 3)
        tracer = Tracer()
        tracer.install()
        traced = Driver(cli.main, goldens, REQUEST_CAP_S,
                        before_request=tracer.next_request)
        try:
            _, traced_wall, truncated_traced = traced.run_blocks(
                None, 0, args.hard_limit * 2 / 3, replay=blocks_run)
        finally:
            tracer.uninstall()
        truncated = truncated or truncated_traced
        cli_stats = {
            "derive_requests": sum(1 for c, _, _ in traced.records if c == "derive"),
            "stdout_bytes": traced.stdout_bytes,
            "nonzero_exits": sum(n for code, n in traced.exit_codes.items() if code != 0),
        }
        overhead = traced_wall - plain_wall
        result["per_layer"] = tracer.layer_metrics(cli_stats, overhead, traced_wall,
                                                   len(blocks_run))
        result["self_time_split"] = tracer.self_time_split()
        result["untraced_wall_s"] = plain_wall
        idle = [layer for layer in workloads.STRESSED_LAYERS[args.workload]
                if tracer.calls[layer] == 0]
        if idle:
            problems.append(f"stressed layers recorded no calls: {idle}")
        spans_path = root / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path)
        records = driver.records + traced.records
        failures = driver.failures + traced.failures
        wall = plain_wall + traced_wall
        in_call_cpu = driver.cpu_s + traced.cpu_s
        result["exit_codes"] = traced.exit_codes
    else:
        blocks_run, wall, truncated = driver.run_blocks(
            replay_stream(), args.seconds, args.hard_limit)
        records, failures = driver.records, driver.failures
        result["exit_codes"] = driver.exit_codes
        in_call_cpu = driver.cpu_s
        result["block_stats"] = driver.block_stats
    cpu = _cpu_s() - cpu0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    in_call_wall = sum(t for _, t, _ in records)
    failed = sum(1 for _, _, status in records if status != "ok")
    timeouts = sum(1 for _, _, status in records if status == "timeout")
    result.update({
        "attempted": len(records),
        "failed": failed,
        "timeouts": timeouts,
        "failures": failures,
        "problems": problems,
        "blocks": len(blocks_run),
        "truncated": truncated,
        "wall_s": wall,
        "cpu_s": cpu,
        "in_call_wall_s": in_call_wall,
        "in_call_cpu_s": in_call_cpu,
        # the share of the timed wall spent in the benchmark's own code (oracle, clean-up)
        "harness_share": 1 - in_call_wall / wall if wall else 0.0,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "latency": latency_stats(records, workloads.TAIL_PERCENTILE[args.workload]),
        "inputs": workloads.summary([r for b in blocks_run for r in b]),
    })
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count()} threads alive; the worker must stay single-threaded")
    result["exit_codes"] = {str(k): v for k, v in sorted(result["exit_codes"].items())}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
