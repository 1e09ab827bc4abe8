#!/usr/bin/env python3
"""Count the lines of the two proof replay paths of src/pretzel_pi1.

The trace replay path, in presentations.py, is what `replay_trace` runs to
check a Tietze trace: the moves, their abelian shadows and the stepper.
The certificate replay path, in orderability.py, is what
`replay_certificate` runs to check a sign-deduction certificate: the rule
functions that RULES names and the two helpers they call, RULES,
CLOSING_RULES, clash, BranchContext and the journal replay.

Each top-level definition or assignment named below is counted from its
first decorator to its last line; the script prints one line per
definition it finds and then the total, for each path.  Names that a file
does not define are skipped, so the same lists count older and newer
versions of the files alike.  Standard library only:

    python3 scripts/replay_loc.py [path/to/presentations.py [path/to/orderability.py]]

The orderability.py path defaults to the file next to presentations.py.
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

# the rule functions are the values of RULES, read from the file itself
CERTIFICATE_NAMES = (
    "_combine", "_is_root_power", "BranchContext", "clash", "CLOSING_RULES", "RULES",
    "_replay_journal", "replay_certificate",
)


def _name(node: ast.stmt):
    """The name a top-level def, class or single-name assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1 \
            and isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None


def rule_functions(tree: ast.Module) -> tuple[str, ...]:
    """The function names that the dict assigned to RULES maps rule names to."""
    for node in tree.body:
        if _name(node) == "RULES" and isinstance(node.value, ast.Dict):
            return tuple(v.id for v in node.value.values if isinstance(v, ast.Name))
    return ()


def spans(tree: ast.Module, names: tuple[str, ...]) -> dict[str, int]:
    """{name: lines} for each top-level definition in names, in file order."""
    out = {}
    for node in tree.body:
        name = _name(node)
        if name in names:
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            out[name] = node.end_lineno - first + 1
    return out


def report(title: str, counted: dict[str, int]) -> None:
    print(title)
    for name, lines in counted.items():
        print(f"{lines:5d}  {name}")
    print(f"{sum(counted.values()):5d}  total")


def count(trace_path: Path = SOURCE,
          cert_path: Path | None = None) -> tuple[dict[str, int], dict[str, int]]:
    """{name: lines} of the trace replay path and of the certificate replay path."""
    cert_path = cert_path or trace_path.with_name("orderability.py")
    tree = ast.parse(cert_path.read_text())
    return (spans(ast.parse(trace_path.read_text()), NAMES),
            spans(tree, CERTIFICATE_NAMES + rule_functions(tree)))


def main(argv: list[str]) -> int:
    trace, cert = count(*(Path(arg) for arg in argv[1:3]))
    report("trace replay", trace)
    print()
    report("certificate replay", cert)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
