"""The package exports only what the library itself uses."""

import ast
from pathlib import Path

import elastovb

PACKAGE = Path(elastovb.__file__).resolve().parent

# Exported for callers outside the library, with the reason.
EXEMPT = {"LinearOracleModel": "the closed-form fake forward model the tests run on"}


def references(tree: ast.Module, skip: ast.AST | None) -> set[str]:
    """Names a module loads, reads as attributes or imports, outside `skip`."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_export_is_used_by_the_library():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    unused = []
    for name in elastovb.__all__:
        if name in EXEMPT or name.startswith("__"):
            continue
        used = False
        for tree in trees.values():
            own = next((node for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name == name), None)
            if name in references(tree, own):
                used = True
                break
        if not used:
            unused.append(name)
    assert not unused, f"exported but used only outside the library: {unused}"
