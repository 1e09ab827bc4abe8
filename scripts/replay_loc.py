#!/usr/bin/env python3
"""Count the lines of the two proof checkers of src/pretzel_pi1, by module.

`replay_trace`, in presentations.py, checks a Tietze trace, and
`replay_certificate`, in orderability.py, checks a sign-deduction
certificate.  What a checker trusts is every module that loading it
runs: the package's __init__.py, the checker's own module, and each
package module that these import, directly or through another.  The
script reads that closure from the import statements (with ast; nothing
is imported) and prints, for each checker, one line per module of its
closure, dependencies first, then the total.  Standard library only:

    python3 scripts/replay_loc.py [path/to/src/pretzel_pi1]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = "pretzel_pi1"
SOURCE = Path(__file__).resolve().parent.parent / "src" / PACKAGE

# checker -> the module that defines it
CHECKERS = {"trace replay": "presentations", "certificate replay": "orderability"}


def package_imports(path: Path) -> set[str]:
    """The modules of the package next to path that path imports anywhere in
    its body, relatively or by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.level == 0 and node.module.split(".")[0] == PACKAGE:
                module = node.module.partition(".")[2]
            else:
                continue
            if module:  # from .x import y
                names.add(module.split(".")[0])
            else:  # from . import x
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith(PACKAGE + "."))
    return {name for name in names if (path.parent / f"{name}.py").exists()}


def closure(module: str, source: Path = SOURCE) -> dict[str, int]:
    """{module: lines} for __init__, module and everything they import, dependencies first."""
    counted: dict[str, int] = {}
    seen: set[str] = set()

    def visit(name: str) -> None:
        seen.add(name)
        path = source / f"{name}.py"
        for dep in sorted(package_imports(path)):
            if dep not in seen:
                visit(dep)
        counted[name] = len(path.read_text().splitlines())

    visit("__init__")
    visit(module)
    return counted


def count(source: Path = SOURCE) -> dict[str, dict[str, int]]:
    """{checker: {module: lines}} for each checker of CHECKERS."""
    return {title: closure(module, source) for title, module in CHECKERS.items()}


def main(argv: list[str]) -> int:
    for n, (title, counted) in enumerate(count(*(Path(arg) for arg in argv[1:2])).items()):
        print(("\n" if n else "") + f"{title} ({CHECKERS[title]})")
        for module, lines in counted.items():
            print(f"{lines:5d}  {module}")
        print(f"{sum(counted.values()):5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
