"""No public API exists only for the tests.

Every public top-level function or class, and every public method of a
top-level class, in ``src/teamdiv`` and ``perfbench`` must be referenced by
name somewhere in those files outside its own definition, unless
``teamdiv.__all__`` exports it. A method counts as referenced only through
attribute access (``obj.name``): a bare name spelled the same, such as a
local variable, is a different binding.
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
