"""The package depends on nothing outside the standard library, and its
command line starts without ``dataclasses`` or ``inspect``."""

from __future__ import annotations

import ast
import subprocess
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


def test_importing_the_command_line_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter: pytest has imported both modules into this one.
    probe = (
        "import sys; sys.path.insert(0, 'src'); import spokenkit.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", probe],
        cwd=PACKAGE.parent.parent,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
