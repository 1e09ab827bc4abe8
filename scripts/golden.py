#!/usr/bin/env python3
"""Golden digests of every CLI output over a fixed grid of commands.

Runs ``pretzel_pi1.cli.main`` in process on each argv of the grid, in
order, inside one fresh temporary directory, so a run can read the files
that earlier runs wrote (``verify trace`` reads the traces that
``derive --emit-trace`` wrote).  For each argv it records the exit code,
the length and sha256 of stdout and of stderr, and the same for every
file the run writes (``--emit-trace``, ``--cert``, ``--emit``).  File
names are relative to the directory, so no path of this machine reaches
a digest.

    python3 scripts/golden.py           # write tests/data/golden_digests.json
    python3 scripts/golden.py --check   # recompute the whole grid and compare

A change that alters a digest rewrites the file and says why.  Tier-1
(tests/test_golden.py) recomputes the fast part of the grid.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pretzel_pi1 import cli  # noqa: E402

DIGESTS = ROOT / "tests" / "data" / "golden_digests.json"
OUTPUT_FLAGS = ("--emit-trace", "--cert", "--emit")


def _corrupt_move(data):
    data["moves"][5]["via"] = "nope"


def _corrupt_end(data):
    data["end"]["relators"][0]["word"] += " c"


def _corrupt_longitude(data):
    data["longitude_end"] += " c"


def _corrupt_both_ends(data):
    _corrupt_end(data)
    _corrupt_longitude(data)


# failing traces: name -> (the passing trace it is made from, the corruption)
FAILING_TRACES = {
    "bad_move_s3.json": ("trace_s3.json", _corrupt_move),
    "bad_end_s3.json": ("trace_s3.json", _corrupt_end),
    "bad_longitude_s3.json": ("trace_s3.json", _corrupt_longitude),
    "bad_ends_s3.json": ("trace_s3.json", _corrupt_both_ends),
}

# trace files committed under tests/data, copied into the run directory:
# the v1 traces (each RewriteLongitude states its whole new word) that
# derive --emit-trace wrote before schema v2
FIXTURES = ("trace_v1_s3.json", "trace_v1_s5.json")

# presentation files for abelianize whose unit-pivot elimination leaves a
# dense core larger than 1x1: name -> text
PRESENTATIONS = {
    "core_2x2.txt": "gens: a b\nrel r1: a^2 b^4\nrel r2: a^6 b^8\n",
    "core_coprime.txt": "gens: a b\nrel r1: a^2\nrel r2: b^3\n",
    "core_3x3.txt": ("gens: a b c\nrel r1: a^2 b^4 c^6\nrel r2: a^6 b^2 c^4\n"
                     "rel r3: a^4 b^6 c^2\n"),
    "core_after_unit.txt": ("gens: a b c\nrel r1: a b^3 c^5\nrel r2: a^2 b^4 c^6\n"
                            "rel r3: a^3 b^9 c^9\n"),
    "core_free.txt": "gens: a b c\nrel r1: a^4 b^6 c^10\n",
}

# (s, slope) for nlo: certificates at and above 4s+7, inconclusive below it
NLO_CASES = [(3, "19/1"), (3, "20/1"), (3, "39/2"), (3, "77/4"), (3, "18/1"),
             (3, "17/1"), (4, "23/1"), (4, "47/2"), (4, "22/1"), (5, "27/1"),
             (5, "26/1"), (3, "3000/1"), (3, "1000/1"), (3, "300/7"), (3, "101/5"),
             (3, "37/2"), (3, "75/4"), (3, "0/1"), (4, "200/3"), (4, "45/2"),
             (4, "1001/10"), (5, "55/2"), (5, "53/2"), (5, "2999/7"), (6, "31/1"),
             (6, "30/1"), (8, "39/1"), (8, "38/1"), (8, "1328/1"), (12, "55/1"),
             (12, "54/1")]


def grid() -> list[tuple[list[str], bool]]:
    """(argv, fast) in run order; the fast runs need only fast runs before them."""
    cases: list[tuple[list[str], bool]] = []

    def add(fast: bool, *argv) -> None:
        cases.append(([str(a) for a in argv], fast))

    for s in range(3, 41):
        add(s <= 10, "derive", "--s", s, "--format", "json", "--emit-trace", f"trace_s{s}.json")
    for s in (60, 100):  # large s, where a move touches few of many relators
        add(False, "derive", "--s", s, "--format", "json", "--emit-trace", f"trace_s{s}.json")
    for s in (3, 4, 5):
        add(s == 3, "derive", "--s", s)
    for s in range(3, 13):
        add(False, "derive", "--s", s, "--verify-induction", "--format", "json")
    for s in range(3, 25):
        add(s <= 10, "verify", "trace", f"trace_s{s}.json", "--check-abelian", "--format", "json")
    for s in (34, 60, 100):
        add(False, "verify", "trace", f"trace_s{s}.json", "--check-abelian", "--format", "json")
    add(True, "verify", "trace", "trace_s3.json", "--check-abelian")
    add(True, "verify", "trace", "trace_s4.json", "--format", "json")
    for name in FIXTURES:
        add(True, "verify", "trace", name, "--check-abelian", "--format", "json")
        add(True, "verify", "trace", name, "--check-abelian")
    for name in FAILING_TRACES:
        add(True, "verify", "trace", name, "--check-abelian", "--format", "json")
        add(True, "verify", "trace", name, "--check-abelian")
    for s, slope in ((3, "19/1"), (3, "39/2"), (3, "-7/2"), (4, "23/1"), (5, "27/1"),
                     (8, "1328/1")):
        name = f"fill_s{s}_{slope.replace('/', '_').replace('-', 'm')}.txt"
        fast = s <= 4
        add(fast, "surgery", "--s", s, f"--slope={slope}", "--emit", name)
        add(fast, "surgery", "--s", s, f"--slope={slope}", "--format", "json")
        add(fast, "abelianize", name)
        add(fast, "abelianize", name, "--format", "json")
        add(fast, "h1", "--s", s, f"--slope={slope}")
        add(fast, "h1", "--s", s, f"--slope={slope}", "--format", "json")
    # large slopes: the filling word c^p L^q would have O(p + q|L|) letters
    for argv in (["--s", 3, "--slope", "100001/1000"], ["--s", 5, "--slope=-1000000007/2"]):
        add(True, "h1", *argv)
        add(True, "h1", *argv, "--format", "json")
    for name in PRESENTATIONS:
        add(True, "abelianize", name)
        add(True, "abelianize", name, "--format", "json")
    for s in (3, 4):
        for stage in ("wirtinger", "tunnel"):
            add(s == 3, "gen", "--s", s, "--stage", stage)
            add(s == 3, "gen", "--s", s, "--stage", stage, "--format", "json")
    for s, slope in NLO_CASES:
        name = f"cert_s{s}_{slope.replace('/', '_')}.json"
        fast = s == 3 and int(slope.split("/")[0]) < 100
        add(fast, "nlo", "--s", s, "--slope", slope, "--format", "json", "--cert", name)
        add(fast, "nlo", "--s", s, "--slope", slope)
    add(True, "verify", "fact", "--s", 3, "--format", "json")
    add(True, "verify", "lemma-k", "--slope", "39/2", "--format", "json")
    add(False, "verify", "induction", "--s", 4)
    add(True, "parse", "clcLCL^-3CLclcl^2", "--format", "json")
    add(True, "parse", "c l^-3 C")
    # an exponent past sys.maxsize is a usage error, not an OverflowError
    for argv in (["parse", f"c^{2 ** 64}"], ["surgery", "--s", 3, "--slope", f"{2 ** 64}/1"]):
        add(True, *argv)
        add(True, *argv, "--format", "json")
    # closed-form words built from their runs, at sizes the grid above does not reach
    add(True, "surgery", "--s", 5, "--slope", "5693/162")
    add(True, "surgery", "--s", 5, "--slope", "5693/162", "--format", "json")
    add(True, "surgery", "--s", 3, "--slope", "100001/1000")
    add(True, "verify", "induction", "--s", 40, "--format", "json")
    add(True, "derive", "--s", 20, "--verify-induction", "--format", "json")
    # a run no tuple can hold is a usage error, not a MemoryError
    for argv in (["parse", f"c^{2 ** 62}"], ["surgery", "--s", 3, "--slope", f"{2 ** 62}/1"]):
        add(True, *argv)
        add(True, *argv, "--format", "json")
    # a budget that stops the search before a costly power line
    for argv in (["--slope", "1/6000", "--depth", 1], ["--slope", "10000/1", "--depth", 15]):
        add(True, "nlo", "--s", 3, *argv)
        add(True, "nlo", "--s", 3, *argv, "--format", "json")
    # a huge s: h1 sums the closed forms' runs and builds no word of O(s) letters
    huge_s = ["h1", "--s", 10 ** 12, "--slope", f"{10 ** 17 + 1}/1"]
    add(True, *huge_s)
    add(True, *huge_s, "--format", "json")
    return cases


def _digest(data: bytes) -> dict:
    return {"len": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _prepare(argv: list[str]) -> None:
    """Write any presentation file or committed trace the argv names, and
    any failing trace, from its passing trace."""
    for name in argv:
        if name in FIXTURES:
            pathlib.Path(name).write_bytes((ROOT / "tests" / "data" / name).read_bytes())
        if name in PRESENTATIONS:
            pathlib.Path(name).write_text(PRESENTATIONS[name], encoding="utf-8")
        if name in FAILING_TRACES and not os.path.exists(name):
            source, corrupt = FAILING_TRACES[name]
            data = json.loads(pathlib.Path(source).read_text(encoding="utf-8"))
            corrupt(data)
            pathlib.Path(name).write_text(json.dumps(data, indent=2), encoding="utf-8")


def run_one(argv: list[str]) -> dict:
    """One in-process CLI run in the current directory, as a digest record."""
    _prepare(argv)
    outputs = [argv[i + 1] for i, arg in enumerate(argv[:-1]) if arg in OUTPUT_FLAGS]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"argv": argv, "exit": code,
            "stdout": _digest(stdout.getvalue().encode("utf-8")),
            "stderr": _digest(stderr.getvalue().encode("utf-8")),
            "files": {name: _digest(pathlib.Path(name).read_bytes())
                      if os.path.exists(name) else None for name in outputs}}


def run_grid(cases: list[list[str]]) -> list[dict]:
    """Run the argv lists in order in a fresh temporary directory."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="golden-") as workdir:
        os.chdir(workdir)
        try:
            return [run_one(argv) for argv in cases]
        finally:
            os.chdir(previous)


def load() -> list[dict]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["runs"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="compare the whole grid with the committed digests")
    args = parser.parse_args()
    records = run_grid([argv for argv, _ in grid()])
    if args.check:
        expected = {json.dumps(r["argv"]): {k: v for k, v in r.items() if k != "fast"}
                    for r in load()}
        bad = [r for r in records if expected.get(json.dumps(r["argv"])) != r]
        for r in bad:
            want = expected.get(json.dumps(r["argv"]), {})
            fields = [k for k in r if want.get(k) != r[k]]
            print(f"differs ({', '.join(fields)}): " + " ".join(r["argv"]))
        print(f"{len(records) - len(bad)} of {len(records)} runs match")
        return 1 if bad else 0
    fast = {json.dumps(argv) for argv, is_fast in grid() if is_fast}
    lines = [json.dumps({**r, "fast": json.dumps(r["argv"]) in fast}) for r in records]
    DIGESTS.write_text('{"runs": [\n' + ",\n".join(lines) + "\n]}\n", encoding="utf-8")
    print(f"wrote {len(records)} runs to {DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
