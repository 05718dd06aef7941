"""Where the library builds an object without its constructor, read from
the sources with ``ast``.

A certified builder fills an object's slots through ``object.__new__``
and skips the validating constructor, because its caller already holds
the certificate. Each such type has one place that does it: a partial
density operator ``density._certified``, a closed subspace
``logic._certified`` and, for a complement whose basis is deferred,
``logic.orthocomplement``. An observable has only its constructor.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qpartial"
MODULES = sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py"))
CERTIFIED_BUILDERS = {("density.py", "_certified"), ("logic.py", "_certified"), ("logic.py", "orthocomplement")}


def object_new_sites(source: str) -> list[str]:
    """The qualified name of the class or function around each reference
    to ``object.__new__`` in ``source``, ``<module>`` at top level, in
    source order."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "__new__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_reader_sees_every_site():
    assert object_new_sites("x = object.__new__(C)\n") == ["<module>"]
    assert object_new_sites("class C:\n    def f(self):\n        return object.__new__(C)\n") == ["C.f"]
    assert object_new_sites("def f():\n    new = object.__new__\n    return new(C)\n") == ["f"]
    assert object_new_sites("def f():\n    return C.__new__(C)\n") == []


def test_object_new_appears_only_in_the_certified_builders():
    sites = {(name, site) for name in MODULES for site in object_new_sites((PACKAGE / name).read_text())}
    assert sites == CERTIFIED_BUILDERS
