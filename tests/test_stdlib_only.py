"""The package depends on nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spokenkit"


def imported_packages(path: Path) -> list[str]:
    """Top-level package of every absolute import in the module, nested ones included."""
    names: list[str] = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_every_top_level_import_is_the_package_or_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    foreign = [
        (str(path.relative_to(PACKAGE)), name)
        for path in modules
        for name in imported_packages(path)
        if name != "spokenkit" and name not in sys.stdlib_module_names
    ]
    assert foreign == []
