"""The package's public surface. ``qho_cal`` itself binds only
``__version__``; every other name is imported from the module that owns it,
and each module's ``__all__`` lists the names it offers."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qho_cal

PACKAGE = Path(qho_cal.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
MODULES = ["analytics", "cli", "errors", "fock", "lindblad", "model", "quadrature",
           "trajectories", "work"]


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports the package from this tree."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def test_module_list_is_the_package():
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__") == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"qho_cal.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_version_and_cli_import_in_a_fresh_interpreter():
    proc = run_python("from qho_cal import __version__, cli")
    assert proc.returncode == 0, proc.stderr


def test_package_binds_no_other_public_name():
    # one import path per name: a bare import of the package loads no
    # submodule and re-exports nothing
    proc = run_python("import qho_cal; print(sorted(n for n in vars(qho_cal) if n[0] != '_'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_tests_import_each_name_from_its_owner():
    # every function or class a test takes from qho_cal.<m> is defined in
    # qho_cal.<m>, so no test leans on a name another module passes along
    borrowed = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module or "").startswith("qho_cal.")):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name)
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    if obj.__module__ != node.module:
                        borrowed.append(f"{path.name}: {alias.name} from {node.module}")
    assert borrowed == []
