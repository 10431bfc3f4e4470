"""A rule on one value is declared once, on its field, with `config.rule`: the
reader enforces it, its edge tests are generated here, no `validate` or
`__post_init__` restates it, and the README's table lists it."""

import ast
import inspect
import json
import math
import textwrap
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
import yaml

from elastovb.cli import main
from elastovb.config import (ConfigError, ObservationFile, RunConfig, parse_block, rule_text,
                             save_config)
from elastovb.driver import RunTrace

from conftest import example1_config

README = Path(__file__).resolve().parents[1] / "README.md"

# each file a reader builds from a record, and the record
ROOTS = {"config.yaml": RunConfig, "observations.json": ObservationFile,
         "run_trace.json": RunTrace}


def records(cls, path=""):
    """`cls` and every record its fields hold, each with its dotted path; a
    list item's path ends in `[i]`."""
    yield cls, path
    for name, hint in typing.get_type_hints(cls).items():
        key = f"{path}.{name}".lstrip(".")
        if typing.get_origin(hint) is list:
            hint, key = typing.get_args(hint)[0], f"{key}[i]"
        if is_dataclass(hint):
            yield from records(hint, key)


def declared_rules():
    """(file, record class, path of its block, field) of every declared rule."""
    return [(file, cls, path, f) for file, root in ROOTS.items()
            for cls, path in records(root) for f in fields(cls) if "rule" in f.metadata]


def edges(cls, f):
    """(bound, accepted, refused) for each bound of field `f`'s rule: the value
    at the edge, or the nearest inside it, and the nearest value outside."""
    hint = typing.get_type_hints(cls)[f.name]
    kind = int if hint in (int, int | None) else float
    for key, bound in f.metadata["rule"].items():
        if key == "one_of":
            for choice in bound:
                yield key, choice, choice.upper()
            continue
        down, up = ((bound - 1, bound + 1) if kind is int
                    else (math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)))
        yield key, *{"ge": (kind(bound), down), "gt": (up, kind(bound)),
                     "lt": (down, kind(bound))}[key]


CASES = [pytest.param(file, cls, path.replace("[i]", "[0]"), f, accepted, refused,
                      id=f"{file}:{path}.{f.name}".replace(":.", ":") + f"-{bound}-{accepted}")
         for file, cls, path, f in declared_rules()
         for bound, accepted, refused in edges(cls, f)]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The plain data of a valid config.yaml, observations.json and run_trace.json."""
    out = tmp_path_factory.mktemp("rules")
    save_config(example1_config(), out / "run.yaml")
    for verb in ("generate", "invert"):
        assert main([verb, "--config", str(out / "run.yaml"), "--out", str(out)]) == 0
    payloads = {name: json.loads((out / name).read_text())
                for name in ("observations.json", "run_trace.json")}
    for payload in payloads.values():
        del payload["schema_version"]
    return {"config.yaml": yaml.safe_load((out / "config.yaml").read_text()), **payloads}


def block_at(payload, where):
    for part in filter(None, where.split(".")):
        name, _, item = part.partition("[")
        payload = payload[name][0] if item else payload[name]
    return payload


@pytest.mark.parametrize("file,cls,where,f,accepted,refused", CASES)
def test_rule_accepts_its_edge_and_refuses_the_nearest_value_outside(
        file, cls, where, f, accepted, refused, artifacts):
    # one field changed in a valid block, which is read alone, so no rule
    # that relates it to another block can accept or refuse it
    block = block_at(artifacts[file], where)
    key = f"{where}.{f.name}".lstrip(".")
    assert getattr(parse_block(cls, {**block, f.name: accepted}, where), f.name) == accepted
    with pytest.raises(ConfigError) as err:
        parse_block(cls, {**block, f.name: refused}, where)
    message = str(err.value)        # the reader refuses inf before the rule sees it
    assert message.startswith(f"{key} must be ") and message.endswith(f", got {refused!r}")


def operands(test):
    """The operands of an `if` test, through `not`, `and`, `or` and comparisons."""
    if isinstance(test, ast.UnaryOp):
        return operands(test.operand)
    if isinstance(test, (ast.BoolOp, ast.Compare)):
        parts = test.values if isinstance(test, ast.BoolOp) else [test.left, *test.comparators]
        return [leaf for part in parts for leaf in operands(part)]
    return [test]


def is_constant(node):
    """A literal, or a name or attribute not read from `self` (`math.inf`, `MU_STOP_REASONS`)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Constant) or isinstance(node, ast.Name) and node.id != "self"


def test_no_validate_or_post_init_checks_one_field():
    # `if self.mu_reg_delay < 0: raise ...` restates a rule that belongs on the
    # field; a rule that relates values, or calls such as np.all(...), stays in code
    found = []
    for cls in {cls for root in ROOTS.values() for cls, _ in records(root)}:
        body = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0].body
        for method in body:
            if not (isinstance(method, ast.FunctionDef)
                    and method.name in ("validate", "__post_init__")):
                continue
            for node in ast.walk(method):
                if not isinstance(node, ast.If):
                    continue
                read = [leaf for leaf in operands(node.test) if not is_constant(leaf)]
                if (len({ast.dump(leaf) for leaf in read}) == 1
                        and isinstance(read[0], ast.Attribute)
                        and ast.unparse(read[0].value) == "self"):
                    found.append(f"{cls.__name__}.{method.name}: {ast.unparse(node.test)}")
    assert not found, f"declare these with config.rule on the field: {found}"


def readme_rules():
    """The rows of the README's table of rules, as (file, key, rule, reason)."""
    lines = README.read_text().splitlines()
    start = lines.index("| File | Key | Rule | Reason |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")))
    return rows


def test_readme_table_lists_exactly_the_declared_rules():
    declared = [(file, f"{path}.{f.name}".lstrip("."), rule_text(f), f.metadata["why"])
                for file, _, path, f in declared_rules()]
    assert sorted(readme_rules()) == sorted(declared)
