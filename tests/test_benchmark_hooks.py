import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses resolve Hook's module here
    spec.loader.exec_module(tracing)
    return tracing.HOOKS


@pytest.mark.parametrize("hook", load_hooks(), ids=lambda h: f"{h.module}.{h.attr}")
def test_hook_target_resolves(hook):
    # the benchmark wraps these names at run time; deleting or renaming one
    # silently drops the metrics that need it
    module = importlib.import_module(hook.module)
    assert hasattr(module, hook.attr), f"{hook.module}.{hook.attr} is gone"
