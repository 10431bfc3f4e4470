"""The package exports only what the library uses, catches only named errors, and
leaves artifact formats to the CLI; the README's library example runs as written."""

import ast
from pathlib import Path

import pytest

import elastovb

PACKAGE = Path(elastovb.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


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
        if name.startswith("__"):
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


def test_no_handler_catches_every_exception():
    # a numerical failure is raised as a named error where it happens, so a
    # bare `except`, or one naming Exception or BaseException, could only
    # turn a bug into a reported failure
    broad = {"Exception", "BaseException"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                      else [] if node.type is None else [node.type])
            names = {n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                     for n in caught}
            if node.type is None or names & broad:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"catch-all handlers: {found}"


def test_only_the_cli_reads_or_writes_artifact_formats():
    # every artifact's name, format and schema version has one owner
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if {m.split(".")[0] for m in modules} & {"json", "csv"}:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"artifact formats outside cli.py: {found}"


def test_config_imports_no_inference_module():
    # the config reader holds every block's rules, the solver's too, and the
    # artifact readers use them, so it must not need what it configures
    inference = {"driver", "mean_update", "vb", "importance", "cli"}
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "config.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `from . import driver` names the module as an alias
            modules = [getattr(node, "module", None) or alias.name for alias in node.names]
            found += [f"config.py:{node.lineno}" for m in modules
                      if m.split(".")[-1] in inference]
    assert not found, f"config imports an inference module: {found}"


def test_readme_library_use_block_runs(monkeypatch, capsys):
    # the documented API cannot drift from the package: the block runs as
    # written, from the repository root, on the shipped configuration
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(README.parent)
    exec(compile(code, str(README), "exec"), {})
    d_theta, calls, ess = capsys.readouterr().out.split()
    assert (int(d_theta), int(calls)) == (6, 11)
    assert float(ess) == pytest.approx(0.141, abs=5e-4)
