"""Every name a module exports exists in it, and every exported name and
every member of a package class has a reader outside the tests.

A reader of ``module.name`` is a read of ``name`` (a loaded ``Name``, a
loaded ``Attribute.attr`` or an ``ImportFrom`` alias, found with ``ast``)
in another module of the package, in ``module`` itself outside the
definition of ``name`` and outside ``__all__``, or in
``tools/output_matrix.py``; or a ``"module:name..."`` spec of the
benchmark tracer.  The package's ``__init__`` only re-exports, so it reads
nothing.  The tracer is read and executed as ``test_tracer_specs`` does;
nothing under ``benchmarks/`` is written.

A member of a class is a method, property, cached property or annotated
(dataclass) field; Python itself reads the dunder methods.  A reader of
``Class.member`` is a loaded ``Attribute`` of its name in a module of the
package outside the member's own definition, or in
``tools/output_matrix.py``, or a ``"module:Class.member"`` tracer spec.
A read is matched by name alone, so a member whose name another attribute
shares, such as ``.H`` (``Evaluation.H`` is read), can have no reader and
pass.
"""

import ast
import functools
import importlib
import pathlib
import pkgutil

import pytest

import skewtorsion

from test_tracer_specs import _tracer

MODULES = sorted(m.name for m in pkgutil.iter_modules(skewtorsion.__path__))
PACKAGE = pathlib.Path(skewtorsion.__file__).parent
OUTPUT_MATRIX = pathlib.Path(__file__).resolve().parents[1] / "tools" / "output_matrix.py"

# exported names that only tests read, each with its reason
NO_READER = {
    ("charts", "random_one_form"): "the Einstein-Weyl criterion's test oracle; "
                                   "ROADMAP 9 folds it into report as an output change",
    ("weyl", "einstein_weyl_residual"): "the Einstein-Weyl criterion's test oracle; "
                                        "ROADMAP 9 folds it into report as an output change",
}


# class members that only tests read, each with its reason
NO_MEMBER_READER = {
    ("frame", "KForm.basis"): "tests build forms through it; ROADMAP 9 keeps it",
    ("charts", "InvariantForm.scaled"): "a criterion oracle; ROADMAP 9 keeps it",
    ("instanton", "GaugeProbeReport.section"): "how the probe tests check the parallel "
                                               "section, until ROADMAP 1's transport",
}


def _tree(path):
    return ast.parse(pathlib.Path(path).read_text(), str(path))


def _reads(tree, skip=(), attributes=False) -> set:
    """The names read in ``tree``, outside the nodes of ``skip``; with
    ``attributes``, the names of loaded attributes only."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if any(node is s for s in skip):
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif attributes:
            pass
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _own_reads(tree, name) -> set:
    """The names a module reads outside the definition of ``name`` and
    outside its ``__all__``."""
    skip = [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
            or isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    return _reads(tree, skip)


@functools.lru_cache(maxsize=None)
def _trees() -> dict:
    return {m: _tree(PACKAGE / f"{m}.py") for m in MODULES}


@functools.lru_cache(maxsize=None)
def _specs() -> list:
    """The tracer's specs, ``"module:attr"`` or ``"module:Class.method"``."""
    tracer = _tracer()
    return [spec for table in (tracer.SPANS, tracer.OUTERMOST, tracer.COUNTERS)
            for group in table.values() for spec in group]


@functools.lru_cache(maxsize=None)
def _readers() -> dict:
    """Per module, the names read by the other modules of the package, the
    output matrix and the tracer specs."""
    trees = _trees()
    tools = _reads(_tree(OUTPUT_MATRIX))
    specs = _specs()
    out = {}
    for m in MODULES:
        names = tools.union(*(_reads(t) for other, t in trees.items() if other != m))
        names.update(spec.partition(":")[2].split(".")[0]
                     for spec in specs if spec.partition(":")[0] == m)
        out[m] = names
    return out


def _unread(module) -> list:
    tree = _trees()[module]
    exported = getattr(importlib.import_module(f"skewtorsion.{module}"), "__all__", ())
    return [name for name in exported
            if name not in _readers()[module] and name not in _own_reads(tree, name)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"skewtorsion.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_has_a_reader(module):
    allowed = {name for m, name in NO_READER if m == module}
    unread = set(_unread(module))
    assert sorted(unread - allowed) == []
    # an exception whose name has gained a reader, or is gone, is stale
    assert sorted(allowed - unread) == []


def _members(tree):
    """(Class.member, its node) for each method, property and annotated
    field of the classes of a module, the dunder methods left out."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{cls.name}.{name}", node


def _unread_members(module) -> list:
    trees = _trees()
    others = _reads(_tree(OUTPUT_MATRIX), attributes=True).union(
        *(_reads(t, attributes=True) for m, t in trees.items() if m != module))
    traced = {spec.partition(":")[2] for spec in _specs() if spec.partition(":")[0] == module}
    return [member for member, node in _members(trees[module])
            if member not in traced and member.partition(".")[2] not in
            others | _reads(trees[module], skip=[node], attributes=True)]


@pytest.mark.parametrize("module", MODULES)
def test_every_class_member_has_a_reader(module):
    allowed = {member for m, member in NO_MEMBER_READER if m == module}
    unread = set(_unread_members(module))
    assert sorted(unread - allowed) == []
    # an exception whose member has gained a reader, or is gone, is stale
    assert sorted(allowed - unread) == []
