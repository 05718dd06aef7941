"""Import layering of the library, read from the sources with ``ast``.

The core modules hold the paper's objects and must not reach up into the
random generators (``sampling``) or the randomized checks (``verify``).
Imports inside functions count as much as module-level ones.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qpartial"
CORE = ["linalg.py", "density.py", "logic.py", "observables.py", "intervals.py"] + sorted(
    f"qlang/{p.name}" for p in (PACKAGE / "qlang").glob("*.py")
)
UPPER = ("qpartial.sampling", "qpartial.verify")


def imported_modules(source: str, package: str) -> set[str]:
    """Every name ``source`` imports anywhere, relative imports resolved
    against ``package``; ``from m import x`` yields both m and m.x."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = parts[: len(parts) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def reaches_up(names: set[str]) -> list[str]:
    return sorted(n for n in names for up in UPPER if n == up or n.startswith(up + "."))


def test_reader_sees_every_import_form():
    assert reaches_up(imported_modules("def f():\n    from .sampling import random_unitary\n", "qpartial"))
    assert reaches_up(imported_modules("from . import verify\n", "qpartial"))
    assert reaches_up(imported_modules("from ..sampling import random_pdo\n", "qpartial.qlang"))
    assert reaches_up(imported_modules("import qpartial.verify\n", "qpartial"))
    assert not reaches_up(imported_modules("from .logic import join\n", "qpartial.qlang"))


@pytest.mark.parametrize("name", CORE)
def test_core_module_imports_neither_sampling_nor_verify(name):
    path = PACKAGE / name
    package = ".".join(("qpartial",) + path.relative_to(PACKAGE).parent.parts)
    assert reaches_up(imported_modules(path.read_text(), package)) == []
