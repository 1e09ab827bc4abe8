import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_golden_digests_cover_the_grid():
    assert [(r["argv"], r["fast"]) for r in golden.load()] == golden.grid()


def test_fast_golden_digests_match():
    """The fast part of the grid reproduces its committed digests byte for byte;
    `scripts/golden.py --check` runs the whole grid."""
    expected = [{k: v for k, v in r.items() if k != "fast"}
                for r in golden.load() if r["fast"]]
    assert golden.run_grid([r["argv"] for r in expected]) == expected
