"""numpy is the package's only runtime dependency: every module imports only
numpy, the package itself and the standard library.  The tests may also
import the ``test`` extra of ``pyproject.toml``, and nothing else, so that
they run after ``pip install -e .[test]``."""

import ast
import re
import sys
from pathlib import Path

import pytest

import gaussocc

ALLOWED = {"numpy", "gaussocc"} | set(sys.stdlib_module_names)
MODULES = sorted(Path(gaussocc.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def imported_roots(path: Path) -> set[str]:
    """Top-level names of the absolute imports in ``path``, those inside functions included;
    relative imports stay in the package."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


def extra_imports() -> set[str]:
    """Import names of the ``test`` extra's requirements, read from ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")  # the standard library's from Python 3.11
    extra = tomllib.loads(PYPROJECT.read_text())["project"]["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", req)[0].replace("-", "_").lower() for req in extra}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_numpy_and_stdlib(path):
    assert imported_roots(path) <= ALLOWED, imported_roots(path) - ALLOWED


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_tests_import_only_the_test_extra(path):
    allowed = ALLOWED | extra_imports()
    assert imported_roots(path) <= allowed, imported_roots(path) - allowed


def test_guard_sees_every_module_and_a_foreign_import(tmp_path):
    assert {"__init__.py", "cli.py", "lifting.py"} <= {p.name for p in MODULES}
    assert {"conftest.py", "test_dependencies.py", "test_head.py"} <= {p.name for p in TESTS}
    assert extra_imports() == {"pytest", "hypothesis"}
    probe = tmp_path / "probe.py"
    probe.write_text("import os.path\nfrom . import core\n\ndef f():\n    from scipy import linalg\n")
    assert imported_roots(probe) - ALLOWED == {"scipy"}
    probe.write_text("import pytest\nfrom pytest_benchmark import plugin\n")
    assert imported_roots(probe) - ALLOWED - extra_imports() == {"pytest_benchmark"}
