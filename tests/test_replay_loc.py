import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location("replay_loc", ROOT / "scripts" / "replay_loc.py")
replay_loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay_loc)

CHECKING = ("words", "report", "smith", "presentations", "knot", "orderability")
PRODUCING = ("derivation", "surgery", "cli")


def test_the_modules_split_into_checking_and_producing():
    modules = {path.stem for path in replay_loc.SOURCE.glob("*.py")}
    assert modules == {"__init__", "__main__", *CHECKING, *PRODUCING}


@pytest.mark.parametrize("module", CHECKING + ("__init__",))
def test_a_checking_module_imports_no_producing_module(module):
    """Read from the import statements: a checker never loads what it checks."""
    imported = replay_loc.package_imports(replay_loc.SOURCE / f"{module}.py")
    assert not imported & set(PRODUCING), imported


def loaded_by(*modules):
    """The modules of sys.modules after importing modules in a fresh interpreter."""
    code = f"import sys, {', '.join(modules)}; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.split())


def test_the_checkers_load_alone():
    """Importing both checkers in a fresh interpreter loads no producing module."""
    loaded = loaded_by("pretzel_pi1.orderability", "pretzel_pi1.presentations")
    assert "pretzel_pi1.orderability" in loaded
    assert not {f"pretzel_pi1.{module}" for module in PRODUCING} & loaded, loaded


def test_the_certificate_checker_loads_only_its_kernel():
    """The certificate checker needs the closed forms and the shared report,
    not the Tietze moves, the trace codec or the Smith normal form."""
    loaded = {name for name in loaded_by("pretzel_pi1.orderability")
              if name.split(".")[0] == "pretzel_pi1"}
    assert loaded == {"pretzel_pi1", "pretzel_pi1.words", "pretzel_pi1.knot",
                      "pretzel_pi1.report", "pretzel_pi1.orderability"}


@pytest.mark.parametrize("module", ["knot", "orderability"])
def test_the_certificate_kernel_imports_no_tietze_engine(module):
    imported = replay_loc.package_imports(replay_loc.SOURCE / f"{module}.py")
    assert not imported & {"presentations", "smith"}, imported


def test_package_imports_reads_every_import_form(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b\nfrom .c import x\nimport pretzel_pi1.d\n"
        "def f():\n    from pretzel_pi1.e import y\n    from pretzel_pi1 import g\n"
        "from . import __version__\nimport json\nfrom .. import h\n")
    for name in "bcdegh":
        (tmp_path / f"{name}.py").write_text("")
    assert replay_loc.package_imports(tmp_path / "a.py") == set("bcdeg")


def test_replay_paths_do_not_grow():
    """The trusted checkers stay small (ROADMAP, north star).  Each bound is the
    whole import closure of the checker's module.  A change that must grow
    one raises its bound here and says why in CHANGES.md."""
    closures = replay_loc.count()
    trace, cert = closures["trace replay"], closures["certificate replay"]
    assert sum(trace.values()) <= 1314, trace
    assert sum(cert.values()) <= 952, cert


def test_only_words_reads_the_letter_tuple():
    """How a word stores its letters is words.py's own: no other module reads
    `.letters` or calls `Word(...)` with an argument (a letter sequence)."""
    found = []
    for path in sorted(replay_loc.SOURCE.glob("*.py")):
        if path.name == "words.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "letters":
                found.append(f"{path.name}:{node.lineno}: .letters")
            elif (isinstance(node, ast.Call) and (node.args or node.keywords)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Word"):
                found.append(f"{path.name}:{node.lineno}: Word(...)")
    assert found == []


# what a Word defines: the surface that run-length storage must keep working
WORD_SURFACE = {
    "__doc__", "__module__", "__slots__", "letters", "_generators",
    "__init__", "_reduced", "__setattr__", "generator", "from_syllables",
    "__len__", "__iter__", "__eq__", "__hash__", "__invert__", "__getitem__", "__pow__",
    "__repr__", "__str__", "syllables", "generators", "tokens", "compact",
    "substitute", "rotated", "cyclic_reduce", "find",
}


def test_a_word_has_one_product_and_hands_out_no_letters():
    """Only words.py knows how a word stores its letters: a Word defines
    exactly WORD_SURFACE, has no `*` (splice is the product) and is not
    iterable, so no other module can read its (name, sign) letters."""
    from pretzel_pi1.words import Word, parse_word

    # Python 3.13 adds two names of its own to every class
    assert set(vars(Word)) - {"__firstlineno__", "__static_attributes__"} == WORD_SURFACE
    assert Word.__iter__ is None and "__mul__" not in vars(Word)
    w = parse_word("c l")
    for use in (iter, list, lambda w: ("c", 1) in w):  # not the __getitem__ fallback
        with pytest.raises(TypeError, match="'Word' (object )?is not iterable"):
            use(w)
    with pytest.raises(TypeError, match="unsupported operand"):
        w * w
