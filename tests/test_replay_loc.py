import importlib.util
from pathlib import Path

ROOT = Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location("replay_loc", ROOT / "scripts" / "replay_loc.py")
replay_loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay_loc)


def test_replay_paths_do_not_grow():
    """The trusted checkers stay small (ROADMAP items 5 and 6).  A change that
    must grow one raises its bound here and says why in CHANGES.md."""
    trace, cert = replay_loc.count()
    assert sum(trace.values()) <= 365, trace
    assert sum(cert.values()) <= 202, cert
