"""No public API and no stored state exist only for the tests.

Every public top-level function or class, and every public method of a
top-level class, in ``src/teamdiv`` and ``perfbench`` must be referenced by
name somewhere in those files outside its own definition, unless
``teamdiv.__all__`` exports it. A method counts as referenced only through
attribute access (``obj.name``): a bare name spelled the same, such as a
local variable, is a different binding.

Every dataclass field and every attribute a method stores on ``self`` must
likewise be read as ``obj.name`` somewhere in those files.
"""
import ast
from pathlib import Path

import teamdiv

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "teamdiv").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py")
)
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(tree):
    """Yield (definition, is_method) for each top-level definition and method."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            yield node, False
        if isinstance(node, ast.ClassDef):
            yield from ((n, True) for n in node.body if isinstance(n, _DEFINITIONS[:2]))


class _References(ast.NodeVisitor):
    """Every name and attribute used, except inside the definition bearing that name."""

    def __init__(self):
        self.names = set()
        self.attributes = set()
        self._enclosing = []

    def _visit_definition(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_definition

    def visit_Name(self, node):
        if node.id not in self._enclosing:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._enclosing:
            self.attributes.add(node.attr)
        self.generic_visit(node)


def test_every_public_definition_is_used_outside_the_tests():
    references = _References()
    definitions = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        references.visit(tree)
        rel = path.relative_to(ROOT)
        definitions += [(f"{rel}:{d.lineno}", d.name, m) for d, m in _public_definitions(tree)]
    unused = [
        f"{where} {name}"
        for where, name, is_method in definitions
        if not name.startswith("_")
        and name not in references.attributes
        and (is_method or name not in references.names)
        and name not in teamdiv.__all__
    ]
    assert unused == []


def _is_dataclass(node):
    return any(
        isinstance(target := d.func if isinstance(d, ast.Call) else d, ast.Name)
        and target.id == "dataclass"
        for d in node.decorator_list
    )


def _stored_state(tree):
    """Yield (line, class, name) for each dataclass field and each ``self.name = ...``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if _is_dataclass(cls) and isinstance(node, ast.AnnAssign):
                yield node.lineno, cls.name, node.target.id
            if not isinstance(node, _DEFINITIONS[:2]):
                continue
            for store in ast.walk(node):
                if (
                    isinstance(store, ast.Attribute)
                    and isinstance(store.ctx, ast.Store)
                    and isinstance(store.value, ast.Name)
                    and store.value.id == "self"
                ):
                    yield store.lineno, cls.name, store.attr


def test_every_field_and_attribute_is_read():
    reads = set()
    stored = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        reads |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        rel = path.relative_to(ROOT)
        stored += [(f"{rel}:{line}", cls, name) for line, cls, name in _stored_state(tree)]
    unread = [f"{where} {cls}.{name}" for where, cls, name in stored if name not in reads]
    assert unread == []
