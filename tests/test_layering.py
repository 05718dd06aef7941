"""Import layering of the library, read from the sources with ``ast``.

The core modules hold the paper's objects and must not reach up into the
random generators (``sampling``) or the randomized checks (``verify``).
Every module imports only the standard library, numpy and the package
itself, the dependencies ``pyproject.toml`` declares. Imports inside
functions count as much as module-level ones.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qpartial"
CORE = ["linalg.py", "density.py", "logic.py", "observables.py", "intervals.py"] + sorted(
    f"qlang/{p.name}" for p in (PACKAGE / "qlang").glob("*.py")
)
UPPER = ("qpartial.sampling", "qpartial.verify")
MODULES = sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py"))
ALLOWED_TOP_LEVEL = {"numpy", "qpartial"}


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


def module_imports(name: str) -> set[str]:
    """``imported_modules`` of the package module at path ``name``."""
    path = PACKAGE / name
    package = ".".join(("qpartial",) + path.relative_to(PACKAGE).parent.parts)
    return imported_modules(path.read_text(), package)


def reaches_up(names: set[str]) -> list[str]:
    return sorted(n for n in names for up in UPPER if n == up or n.startswith(up + "."))


def undeclared(names: set[str]) -> list[str]:
    """Top-level packages among ``names`` that are neither in the standard
    library nor numpy nor qpartial."""
    tops = {n.split(".")[0] for n in names}
    return sorted(tops - ALLOWED_TOP_LEVEL - set(sys.stdlib_module_names))


def test_reader_sees_every_import_form():
    assert reaches_up(imported_modules("def f():\n    from .sampling import random_unitary\n", "qpartial"))
    assert reaches_up(imported_modules("from . import verify\n", "qpartial"))
    assert reaches_up(imported_modules("from ..sampling import random_pdo\n", "qpartial.qlang"))
    assert reaches_up(imported_modules("import qpartial.verify\n", "qpartial"))
    assert not reaches_up(imported_modules("from .logic import join\n", "qpartial.qlang"))


@pytest.mark.parametrize("name", CORE)
def test_core_module_imports_neither_sampling_nor_verify(name):
    assert reaches_up(module_imports(name)) == []


@pytest.mark.parametrize("name", [n for n in CORE if n.startswith("qlang/")])
def test_qlang_module_does_not_import_logic(name):
    # a guard is its qubit and ket, not a closed subspace
    assert sorted(n for n in module_imports(name) if n == "qpartial.logic" or n.startswith("qpartial.logic.")) == []


def test_undeclared_reader_sees_every_import_form():
    assert undeclared(imported_modules("def f():\n    import scipy.linalg\n", "qpartial")) == ["scipy"]
    assert undeclared(imported_modules("from scipy.linalg import eigh\n", "qpartial")) == ["scipy"]
    assert not undeclared(imported_modules("from __future__ import annotations\nimport numpy as np\n", "qpartial"))
    assert not undeclared(imported_modules("from ..linalg import as_matrix\nimport itertools\n", "qpartial.qlang"))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_stdlib_numpy_and_the_package(name):
    assert undeclared(module_imports(name)) == []
