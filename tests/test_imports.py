"""Static checks: every module under src/softgrip uses each name it imports, and
every name it defines at module or class level is referenced in src/softgrip."""

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


# Defined in src/softgrip but referenced only from outside it, each for a reason.
UNREFERENCED_OK = {
    "interp_dp": "perfbench's layer tracer binds it",
    "true_equilibrium": "perfbench's layer tracer binds GripperSim.true_equilibrium",
    "solve_equilibrium_bruteforce": (
        "the reference oracle the solver is tested against; perfbench's counters bind "
        "softgrip.contact.pressure_at_angle, joint_torque and tip_extent, which contact imports only for it"
    ),
}


def _definitions(tree: ast.Module) -> list:
    """Module-level functions, classes and constants, and the methods of each class."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.extend(
                item.name for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            )
    return names


def _references(tree: ast.Module) -> set:
    """Names and attributes read anywhere in tree; an assignment target is not a read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def _unreferenced(trees: list) -> list:
    referenced = set().union(*map(_references, trees))
    return sorted({name for tree in trees for name in _definitions(tree)} - referenced)


def test_every_definition_is_referenced():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert _unreferenced(trees) == sorted(UNREFERENCED_OK)


def test_checker_flags_an_unreferenced_function():
    tree = ast.parse(
        "LIMIT = 3\nSPARE = 4\n"
        "def used():\n    return LIMIT\n"
        "def unused():\n    return used()\n"
        "class Box:\n    def __init__(self):\n        pass\n    def size(self):\n        return 0\n"
        "Box()\n"
    )
    assert _unreferenced([tree]) == ["SPARE", "size", "unused"]
