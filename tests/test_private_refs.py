"""Every private function, class or method of the package is referenced
from the package, so a helper that nothing calls any more is found."""

import ast
from pathlib import Path

import tubalsketch

SOURCES = {p.name: p.read_text() for p in Path(tubalsketch.__file__).parent.glob("*.py")}


def unreferenced_privates(sources):
    """(module, line, name) of each private function, class or method (one
    leading underscore, not a dunder) defined in ``sources``, a dict of
    module name to source, whose name no node of any of them reads as a
    name or an attribute; an import alone is not a reference."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(d for d in defined if d[2] not in read)


def test_every_private_definition_is_referenced():
    assert unreferenced_privates(SOURCES) == []


def test_an_unreferenced_private_is_found():
    sources = {"a.py": "def _a():\n    pass\n\n\ndef _b():\n    _a()\n",
               "b.py": "from a import _b\n\n\nclass _C:\n    def _m(self):\n"
                       "        return self._n\n\n    def __init__(self):\n        pass\n\n\n"
                       "x = _C()\n"}
    assert unreferenced_privates(sources) == [("a.py", 5, "_b"), ("b.py", 5, "_m")]
