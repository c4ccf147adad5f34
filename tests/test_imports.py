"""Every imported name is used, and every name in ``__all__`` is defined.

The check reads each module of the package and of the test suite with
``ast``.  An import whose line carries ``# noqa: F401`` is exempt: such a
name is kept on purpose.  In the package the only such purpose is the
benchmark tracer, so each of those names must be one that
``perfbench/tracing.py`` wraps in that module's namespace.
"""
import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "platecap").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
NOQA = "# noqa: F401"


def _parse(path):
    text = path.read_text()
    return text.splitlines(), ast.parse(text, filename=str(path))


def _imported(tree):
    """(name bound, line) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], a.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield a.asname or a.name, a.lineno


def _exported(tree):
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _bound_at_top(tree):
    """Names the module's top-level statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                yield a.asname or a.name.split(".")[0]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from (n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_used_and_exports_defined(path):
    lines, tree = _parse(path)
    exported = _exported(tree)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(exported)
    unused = [f"{name} (line {ln})" for name, ln in _imported(tree)
              if name not in used and NOQA not in lines[ln - 1]]
    assert not unused, f"unused imports in {path.name}: {unused}"
    bound = set(_bound_at_top(tree))
    undefined = [n for n in exported if n not in bound]
    assert not undefined, f"{path.name}: __all__ lists undefined {undefined}"


def test_package_noqa_imports_are_traced():
    spec = importlib.util.spec_from_file_location(
        "platecap_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = {(mod, name) for mod, name, _, _ in tracing.FUNCTIONS}
    stray = []
    for path in PACKAGE:
        lines, tree = _parse(path)
        stray += [f"{path.stem}.{name} (line {ln})"
                  for name, ln in _imported(tree)
                  if NOQA in lines[ln - 1]
                  and (path.stem, name) not in wrapped]
    assert not stray, f"noqa imports the tracer does not wrap: {stray}"
