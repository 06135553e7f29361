"""What the benchmark scripts in ``perfbench/`` need from the package.

The scripts import gaussocc modules and names, call functions on those
modules with keyword arguments, trace functions by ``module.name`` and read
the arguments of captured calls by parameter name.  A rename or deletion in
``src/`` that breaks any of these makes every benchmark run fail, so these
tests fail first.  They parse the scripts with ``ast`` and never run them.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGE = "gaussocc"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))

# parameters that perfbench/worker.py reads by name from the bound arguments
# of a captured call (its _work_counts, _oracles and cmd_run)
CAPTURED_PARAMETERS = {
    "head.splat_arrays": ("arrays", "spec", "truncation_radius_sigmas", "occupancy_threshold", "threads"),
    "head.selective_scan": ("tokens", "params"),
    "metrics.lovasz_softmax": ("probs", "labels", "excluded_class"),
}


def parse(script: Path) -> ast.Module:
    return ast.parse(script.read_text(), filename=str(script))


def package_imports(tree: ast.Module) -> tuple[dict[str, object], list[str]]:
    """For every ``from gaussocc[.module] import name``: local name -> object,
    and the imported names that no longer exist."""
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == PACKAGE:
            module = importlib.import_module(node.module)
            for alias in node.names:
                target = getattr(module, alias.name, None)
                if target is None:
                    try:
                        target = importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        missing.append(f"{node.module}.{alias.name} (line {node.lineno})")
                        continue
                bound[alias.asname or alias.name] = target
    return bound, missing


def module_constant(script: str, name: str):
    """The literal value assigned to ``name`` at the top level of a perfbench script."""
    for node in parse(PERFBENCH / script).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{script} assigns no {name}")


def resolve(span: str):
    """The function a ``module.name`` span names, or None."""
    short, _, name = span.partition(".")
    return getattr(importlib.import_module(f"{PACKAGE}.{short}"), name, None)


def test_perfbench_scripts_found():
    assert {p.name for p in SCRIPTS} >= {"run.py", "worker.py", "tracer.py", "workloads.py"}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_imported_names_and_module_attributes_exist(script):
    tree = parse(script)
    bound, missing = package_imports(tree)
    missing += [
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and inspect.ismodule(bound.get(node.value.id)) and not hasattr(bound[node.value.id], node.attr)
    ]
    assert not missing, f"perfbench/{script.name} uses names the package no longer has: {missing}"


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_calls_still_bind(script):
    """Every call on an imported package name binds its positional count and keywords."""
    tree = parse(script)
    bound, _ = package_imports(tree)
    failures = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in bound:
            target = bound[func.id]
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and inspect.ismodule(bound.get(func.value.id)):
            target = getattr(bound[func.value.id], func.attr, None)
        else:
            continue
        if target is None or any(isinstance(a, ast.Starred) for a in node.args):
            continue  # a missing name is reported by the test above
        keywords = {kw.arg: None for kw in node.keywords if kw.arg is not None}
        try:
            inspect.signature(target).bind_partial(*[None] * len(node.args), **keywords)
        except TypeError as exc:
            failures.append(f"{ast.unparse(func)} (line {node.lineno}): {exc}")
    assert not failures, f"perfbench/{script.name} calls that no longer bind: {failures}"


def test_traced_modules_exist():
    for short in module_constant("tracer.py", "MODULES"):
        importlib.import_module(f"{PACKAGE}.{short}")


def test_captured_spans_are_traceable_functions():
    """The tracer wraps public functions only, so a captured span must name one."""
    for span in module_constant("worker.py", "CAPTURED"):
        fn = resolve(span)
        name = span.partition(".")[2]
        assert inspect.isfunction(fn) and not name.startswith("_"), f"{span} is not a public function"


@pytest.mark.parametrize("span", sorted(CAPTURED_PARAMETERS))
def test_captured_parameters_exist(span):
    assert span in module_constant("worker.py", "CAPTURED")
    parameters = inspect.signature(resolve(span)).parameters
    missing = [name for name in CAPTURED_PARAMETERS[span] if name not in parameters]
    assert not missing, f"{span} lost the parameters the benchmark reads: {missing}"
