#!/usr/bin/env python3
"""Sweep surgery slopes and report which filled groups get certificates.

Each slope is one `pretzel-pi1 nlo` run through `cli.run`, so every
emitted certificate is re-validated by the replayer exactly as the
command does it, and with --out the certificate is the file that
`nlo --cert` writes.  Inconclusive results are printed as such (the
engine never guesses).
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from pretzel_pi1 import cli
from pretzel_pi1.knot import parse_slope
from pretzel_pi1.surgery import DEFAULT_DEPTH


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
        argv = ["nlo", "--s", str(args.s), f"--slope={slope}", "--depth", str(args.depth)]
        path = args.out / f"nlo_s{args.s}_{slope.p}_{slope.q}.json" if args.out else None
        code, document, *_ = cli.run(argv + (["--cert", str(path)] if path else []))
        if code == cli.EXIT_INCONCLUSIVE:
            verdict = f"inconclusive ({document()['reason']})"
        else:
            verdict = "certificate" + ("" if code == cli.EXIT_PASS else " [REPLAY REJECTED]")
            bad += code != cli.EXIT_PASS
            if path:
                verdict += f" -> {path}"
        odd = "odd" if slope.p % 2 else "even"
        print(f"s={args.s} slope={str(slope):>6}  p {odd:4}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
