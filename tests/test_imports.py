"""Every imported name is used, every name in ``__all__`` is defined, and
every package definition is reached by a run, a gate or a workload.

The checks read each module of the package and of the test suite with
``ast`` and the standard library's ``symtable``.  An import is used when
the scope that binds it reads the name, or a nested scope reads it from
there (as a global for a module-level import, as a free variable for one
in a function), or an annotation names it; a local of the same name in
another scope does not count.  An import whose line carries
``# noqa: F401`` is exempt: such a name is kept on purpose.  In the package
the only such purpose is the benchmark tracer, so each of those names must
be one that ``perfbench/tracing.py`` wraps in that module's namespace.

Reachability is a closure over the top-level definitions (``def``,
``class`` and assignment) of ``src/platecap`` and the methods of its
classes.  Its roots are every definition of ``cli`` and every identifier of
``tests/test_acceptance.py`` and of ``perfbench/*.py``, string constants of
the latter included (the tracer names the functions and methods it wraps as
strings).  A definition reaches every name and attribute in its own source
that resolves, through its module or that module's ``from .m import n``
imports, to another top-level definition.  A method of a reached class is
reached when reached code or a root names it as an attribute; a class's
dunder methods belong to the class itself.  What nothing reaches must be
listed in ``REFERENCE_ONLY`` with its reason, and that list must hold
nothing else.

The method rule matches names, not call sites: one attribute name reaches
every method of that name in every reached class.  So the ``eval`` methods
of the two fundamental solutions, of ``PhiSharp`` and of the far-field
expansion passed while only tests called them, because ``LogField.eval``
is reached.  Nor does the rule see options, modes or arguments that no run
uses.  Tracing the lines executed (``sys.settrace``) over every CLI kind
and every acceptance gate found those four methods and such options; it
is the check to repeat for anything below the level of a definition.
"""
import ast
import importlib.util
import itertools
import symtable
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "platecap").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
NOQA = "# noqa: F401"

# Definitions that only tests reach, kept on purpose: exact references the
# tests compare against, and the paper's objects that open work builds on.
REFERENCE_ONLY = {
    "elastic.lame_reduced": "closed-form reduced Lame modulus of the oracle",
    "elastic.lame_reduced_exact": "exact reduced stiffness the tests compare "
                                  "the reduction against",
    "elastic.rigid_polyfield": "exact rigid motions the residual tests feed "
                               "the operators",
    "fundamental.eval_isotropic_fundamentals": "closed-form isotropic "
                                               "fundamental matrices, the "
                                               "tests' oracle",
    "layer.grid_interpolate": "the tests' reference for the annulus fitter's "
                              "stencil",
    "layer.v01_norm": "the paper's weighted norm of the layer",
    "polyfield.Poly.scale_zeta": "the substitution zeta -> zeta/h that "
                                 "recomposes the thickness-scaled operator",
    "reduction.apply_ansatz": "the paper's ansatz field built from a limit "
                              "solution",
    "reduction.AnsatzField": "the field apply_ansatz returns",
}


def _parse(path):
    text = path.read_text()
    return text.splitlines(), ast.parse(text, filename=str(path))


def _imported(tree):
    """(name bound, line) of every import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], a.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    yield a.asname or a.name, a.lineno


def _reads(scope):
    """Names bound in a ``symtable`` scope that it or a nested scope reads.
    A nested scope reads a module name as a global and a function's name
    as a free variable; class scopes do not nest."""
    module = scope.get_type() == "module"
    used = {s.get_name() for s in scope.get_symbols() if s.is_referenced()}
    todo = [] if scope.get_type() == "class" else scope.get_children()
    while todo:
        inner = todo.pop()
        used.update(s.get_name() for s in inner.get_symbols()
                    if s.is_referenced()
                    and (s.is_global() if module else s.is_free()))
        todo += inner.get_children()
    return used


def _unused_imports(path, tree):
    """(name, line) of every import that the scope binding it never reads.
    Names in annotations count as read: under ``from __future__ import
    annotations`` they are never evaluated, so ``symtable`` omits them."""
    noted = {n.id for node in ast.walk(tree)
             for note in (getattr(node, "annotation", None),
                          getattr(node, "returns", None)) if note is not None
             for n in ast.walk(note) if isinstance(n, ast.Name)}

    def visit(body, scope):
        used = _reads(scope) | noted
        inner = {(t.get_name(), t.get_lineno()): t
                 for t in scope.get_children()}
        todo = list(body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield from visit(node.body, inner[node.name, node.lineno])
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from ((name, ln) for name, ln in _imported(node)
                            if name not in used)
            else:
                todo.extend(ast.iter_child_nodes(node))

    yield from visit(tree.body, symtable.symtable(
        path.read_text(), str(path), "exec"))


def _exported(tree):
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _is_method(node):
    """A function in a class body that is not a dunder."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def _defined(tree):
    """(name, statement) of every top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from ((n.id, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def _bound_at_top(tree):
    """Names the module's top-level statements bind."""
    yield from (name for name, _ in _defined(tree))
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                yield a.asname or a.name.split(".")[0]


def _methods(tree):
    """("Class.method", statement) of every method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if _is_method(m))


def _own_nodes(node):
    """The nodes of a definition; a class's methods are definitions of
    their own."""
    if not isinstance(node, ast.ClassDef):
        return ast.walk(node)
    parts = [n for n in ast.iter_child_nodes(node) if not _is_method(n)]
    return itertools.chain([node], *map(ast.walk, parts))


def _words(nodes, strings=False):
    """(names, attributes) among the nodes; their string constants, if
    asked, count as both."""
    names, attrs = set(), set()
    for n in nodes:
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str)):
            names.add(n.value)
            attrs.add(n.value)
    return names, attrs


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_used_and_exports_defined(path):
    lines, tree = _parse(path)
    exported = _exported(tree)
    unused = [f"{name} (line {ln})" for name, ln in _unused_imports(path, tree)
              if name not in exported and NOQA not in lines[ln - 1]]
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


def test_package_definitions_are_reached():
    defs, imports = {}, {}     # "module.name" -> statement; alias resolution
    methods = {}               # "module.Class.method" -> statement
    for path in PACKAGE:
        mod = path.stem
        _, tree = _parse(path)
        defs.update((f"{mod}.{name}", node) for name, node in _defined(tree)
                    if not (name.startswith("__") and name.endswith("__")))
        methods.update((f"{mod}.{name}", node)
                       for name, node in _methods(tree))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imports.update((f"{mod}.{a.asname or a.name}",
                                f"{node.module}.{a.name}")
                               for a in node.names)

    def resolve(mod, name):
        key = f"{mod}.{name}"
        while key in imports:
            key = imports[key]
        return key if key in defs else None

    by_name = {}
    for key in defs:
        by_name.setdefault(key.split(".", 1)[1], []).append(key)
    outside = [(ROOT / "tests" / "test_acceptance.py", False),
               *((p, True) for p in (ROOT / "perfbench").glob("*.py"))]
    todo = [key for key in defs if key.startswith("cli.")]
    attrs = set()              # attribute names that reached code reads
    for path, strings in outside:
        names, found = _words(ast.walk(_parse(path)[1]), strings)
        attrs |= found
        for name in names | found:
            todo += by_name.get(name, [])
    source = {**defs, **methods}
    reached = set()
    while todo:
        while todo:
            key = todo.pop()
            if key in reached:
                continue
            reached.add(key)
            mod = key.split(".", 1)[0]
            names, found = _words(_own_nodes(source[key]))
            attrs |= found
            todo += filter(None, (resolve(mod, name)
                                  for name in names | found))
        todo = [key for key in methods if key not in reached
                and key.rsplit(".", 1)[0] in reached
                and key.rsplit(".", 1)[1] in attrs]
    candidates = set(defs) | {key for key in methods
                              if key.rsplit(".", 1)[0] in reached}
    unreached = sorted(candidates - reached - set(REFERENCE_ONLY))
    assert not unreached, ("definitions no run, gate or workload reaches: "
                           f"{unreached}")
    stale = sorted(k for k in REFERENCE_ONLY
                   if k in reached or k not in source)
    assert not stale, f"REFERENCE_ONLY entries reached or not defined: {stale}"
