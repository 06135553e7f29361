"""numpy is the package's only runtime dependency: every module imports only
numpy, the package itself and the standard library."""

import ast
import sys
from pathlib import Path

import pytest

import gaussocc

ALLOWED = {"numpy", "gaussocc"} | set(sys.stdlib_module_names)
MODULES = sorted(Path(gaussocc.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_numpy_and_stdlib(path):
    assert imported_roots(path) <= ALLOWED, imported_roots(path) - ALLOWED


def test_guard_sees_every_module_and_a_foreign_import(tmp_path):
    assert {"__init__.py", "cli.py", "lifting.py"} <= {p.name for p in MODULES}
    probe = tmp_path / "probe.py"
    probe.write_text("import os.path\nfrom . import core\n\ndef f():\n    from scipy import linalg\n")
    assert imported_roots(probe) - ALLOWED == {"scipy"}
