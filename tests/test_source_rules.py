"""Rules the package's source keeps, read from its syntax tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CONTROLLERS = {"Controller", "ConstantDroop", "NoControl", "Vdic"}


def _names(node: ast.AST) -> set[str]:
    """The names a class argument of isinstance mentions: bare, dotted or in
    a tuple."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_type_test_on_a_controller():
    # a controller tells the integrator what it needs through its methods
    # (coefficients, segments), so nothing in the package asks for its type
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2
             and _names(node.args[1]) & CONTROLLERS]
    assert not found
