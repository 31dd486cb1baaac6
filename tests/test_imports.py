"""Static check: every module under src/softgrip uses each name it imports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "softgrip"


def _unused_imports(tree: ast.Module) -> list:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"line {node.lineno}: {name}")
    return unused


def test_no_unused_imports():
    found = {path.name: _unused_imports(ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_checker_flags_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom math import pi, tau\nprint(np, tau)\n")
    assert _unused_imports(tree) == ["line 1: os", "line 3: pi"]
