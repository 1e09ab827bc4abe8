#!/usr/bin/env python3
"""Sweep surgery slopes and report which filled groups get certificates.

Every emitted certificate is immediately re-validated by the replayer;
Inconclusive results are printed as such (the engine never guesses).
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from pretzel_pi1.knot import parse_slope
from pretzel_pi1.orderability import replay_certificate
from pretzel_pi1.surgery import DEFAULT_DEPTH, Certificate, nlo_search


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--s", type=int, default=3)
    parser.add_argument("--slopes", nargs="*",
                        default=["17/1", "18/1", "19/1", "20/1", "39/2", "21/1"])
    parser.add_argument("--out", type=pathlib.Path,
                        help="directory for certificate JSON files")
    parser.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    args = parser.parse_args()

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    bad = 0
    for text in args.slopes:
        slope = parse_slope(text)
        result = nlo_search(args.s, slope, depth=args.depth)
        if isinstance(result, Certificate):
            document = result.to_json()
            replay = replay_certificate(document)
            verdict = "certificate" + ("" if replay.ok else " [REPLAY REJECTED]")
            bad += 0 if replay.ok else 1
            if args.out:
                path = args.out / f"nlo_s{args.s}_{slope.p}_{slope.q}.json"
                path.write_text(json.dumps(document, indent=2))
                verdict += f" -> {path}"
        else:
            verdict = f"inconclusive ({result.reason})"
        odd = "odd" if slope.p % 2 else "even"
        print(f"s={args.s} slope={str(slope):>6}  p {odd:4}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
