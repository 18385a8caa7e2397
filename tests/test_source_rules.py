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


def _inside(tree: ast.AST, name: str) -> set[ast.AST]:
    """The nodes of the functions of tree named name."""
    return {node for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == name
            for node in ast.walk(f)}


def test_config_error_raised_only_by_the_loader_and_the_cli():
    # the loader's helpers raise ValidationError, and load_config alone turns
    # it into a ConfigError naming the file, so no refusal misses the file
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loader = _inside(tree, "load_config")
        found += [f"{path.relative_to(SRC)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "ConfigError" and node not in loader]
    assert not found


def test_law_read_only_through_checked_law():
    # integrate._checked_law refuses a law of the wrong type, dtype, shape or
    # sign, so every reading of a controller's law, over the samples and over
    # the substeps, goes through it: it alone calls coefficients
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        checked = _inside(tree, "_checked_law") if path.name == "integrate.py" else set()
        calls += [(f"{path.relative_to(SRC)}:{node.lineno}", node in checked)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "coefficients"]
    assert [where for where, ok in calls if not ok] == []
    assert len(calls) == 1
