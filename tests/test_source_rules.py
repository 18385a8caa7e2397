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


def test_config_error_raised_only_by_the_loader_and_the_cli():
    # the loader's helpers raise ValidationError, and load_config alone turns
    # it into a ConfigError naming the file, so no refusal misses the file
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loader = {node for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == "load_config"
                  for node in ast.walk(f)}
        found += [f"{path.relative_to(SRC)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "ConfigError" and node not in loader]
    assert not found
