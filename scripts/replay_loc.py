#!/usr/bin/env python3
"""Count the lines of the trace replay path in src/pretzel_pi1/presentations.py.

The replay path is what `replay_trace` runs to check a Tietze trace: the
moves, their abelian shadows and the stepper.  Each top-level definition
named below is counted from its first decorator to its last line; the
script prints one line per definition it finds and then the total.  Names
that the file does not define are skipped, so the same list counts older
and newer versions of the file alike.  Standard library only:

    python3 scripts/replay_loc.py [path/to/presentations.py]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "pretzel_pi1" / "presentations.py"

NAMES = (
    "_checked", "solve_for", "_exponent_sums", "_row", "_rows", "_plus", "Insertion",
    "AddGenerator", "RemoveGenerator", "SubstituteEverywhere", "AddRelator",
    "RewriteRelator", "RemoveRelator", "RotateRelator", "InvertRelator",
    "RelabelRelator", "RewriteLongitude", "apply_move", "_abelian_shadow", "Replay",
    "replay_trace",
    # the move as a Delta and its abelian shadow
    "_require", "Move", "Delta", "_moved_rows", "_json_type",
    # one rule for the insertions of relator and longitude rewrites
    "_inserted",
    # the one name-keyed exponent row, public since surgery reads H1 from it
    "exponent_row", "row_plus",
)


def spans(source: str) -> dict[str, int]:
    """{name: lines} for each top-level definition in NAMES, in file order."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in NAMES:
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out[node.name] = node.end_lineno - first + 1
    return out


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else SOURCE
    counted = spans(path.read_text())
    for name, lines in counted.items():
        print(f"{lines:5d}  {name}")
    print(f"{sum(counted.values()):5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
