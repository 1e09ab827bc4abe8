#!/usr/bin/env python3
"""Reproduce the whole derivation grid and print one status line per s.

For each s the script runs the simplification pipeline, replays its
trace with abelianization checks, verifies both induction oracles, the
palindrome property, the clasp identity, and a sample of filled H1
orders.  Exits nonzero if anything fails.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from pretzel_pi1.derivation import run_pipeline, verify_L_induction, verify_R_induction
from pretzel_pi1.knot import Slope, final_relator, h1_order, longitude_word
from pretzel_pi1.presentations import replay_trace
from pretzel_pi1.surgery import verify_fact
from pretzel_pi1.words import CyclicWord, palindrome_rotation


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-s", type=int, default=3)
    parser.add_argument("--max-s", type=int, default=12)
    args = parser.parse_args()

    failures = 0
    for s in range(args.min_s, args.max_s + 1):
        start = time.perf_counter()
        trace = run_pipeline(s).trace
        checks = {
            "replay": replay_trace(trace, check_abelian=True).ok,
            "relator": trace.end.relators == (("r_inf", final_relator(s)),),
            "longitude": trace.longitude_end == longitude_word(s),
            "R-induction": verify_R_induction(s).ok,
            "L-induction": verify_L_induction(s).ok,
            "palindrome": palindrome_rotation(
                CyclicWord(trace.end.relator("r_inf"))) is not None,
            "clasp": verify_fact(s).ok,
            "h1": h1_order(s, Slope(4 * s + 7, 1)) == 4 * s + 7,
        }
        elapsed = time.perf_counter() - start
        bad = [name for name, ok in checks.items() if not ok]
        status = "ok" if not bad else f"FAIL ({', '.join(bad)})"
        print(f"s={s:2d}  moves={len(trace.moves):3d}  "
              f"relator_len={len(trace.end.relator('r_inf')):3d}  {elapsed:6.3f}s  {status}")
        failures += len(bad)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
