"""The traced benchmark (perfbench/tracing.py) wraps weightsys functions by
name.  Every name it lists must resolve, and a method must sit in its own
class's ``__dict__``, or the traced run silently loses that layer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
HOOKS = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTS]


@pytest.mark.parametrize("module, attr", HOOKS)
def test_traced_name_resolves(module, attr):
    assert module in tracing.MODULES
    mod = importlib.import_module(f"weightsys.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth))
    else:
        assert callable(getattr(mod, attr, None))
