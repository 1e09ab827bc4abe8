"""The layer tracer of perfbench still finds what it counts in the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("layer", tracer.LAYERS)
def test_every_layer_imports(layer):
    importlib.import_module(f"pretzel_pi1.{layer}")


def _defines(layer: str, name: str) -> bool:
    module = importlib.import_module(f"pretzel_pi1.{layer}")
    fn = getattr(module, name, None)
    return inspect.isfunction(fn) and fn.__module__ == module.__name__


@pytest.mark.parametrize("label", sorted(label for label in tracer.AFTER_HOOKS
                                          if "." not in label))
def test_every_function_hook_names_a_layer_function(label):
    """A hook keyed by a bare name counts calls of the module-level function
    of that name that one of the layers defines; the tracer wraps only those."""
    owners = [layer for layer in tracer.LAYERS if _defines(layer, label)]
    assert len(owners) == 1, (label, owners)
