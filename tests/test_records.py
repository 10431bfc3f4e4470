"""Every record an artifact holds has one writer, `config.to_plain`, and one
reader, `config.parse_block`: no class maps itself to or from a dict, and the
CLI builds each record it reads from JSON by the reader alone."""

import ast
from pathlib import Path

import elastovb

PACKAGE = Path(elastovb.__file__).resolve().parent

# the records the CLI reads back from its JSON artifacts
JSON_RECORDS = {"ObservationFile": "observations.json", "RunTrace": "run_trace.json"}


def test_no_class_maps_itself_to_or_from_a_dict():
    found = [f"{path.name}:{node.name}.{item.name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)
             for item in node.body
             if isinstance(item, ast.FunctionDef) and item.name in ("to_dict", "from_dict")]
    assert not found, f"a record's own mapping beside to_plain and parse_block: {found}"


def test_cli_reads_every_json_record_through_parse_block():
    # a record class named anywhere else, e.g. `RunTrace(**payload)` or
    # `ObservationFile.from_dict`, would build it by rules of its own
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    read = [node.args[0] for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "parse_block" and node.args]
    for name, artifact in JSON_RECORDS.items():
        named = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id == name]
        assert named, f"cli never reads {artifact} as a {name}"
        others = [node.lineno for node in named if not any(node is arg for arg in read)]
        assert not others, f"cli names {name} outside parse_block at lines {others}"
