import ast
from collections import Counter
from pathlib import Path

import semistab

SRC = Path(semistab.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements; checks must raise explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src: {found}"


def _names(tree, attributes_only=False):
    """Every identifier the tree names as an attribute and, unless
    `attributes_only`, as a bare name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name) and not attributes_only:
            yield node.id


def test_every_definition_in_the_package_is_used():
    # a def counts as used when some name or attribute in src/, tests/ or
    # bench/ refers to it outside its own body, and a method only when an
    # attribute does, so that a parameter or local of the same name does not
    # hide it; the CLI's _cmd_* handlers are dispatched by name through globals()
    root = SRC.parent.parent
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for d in ("src", "tests", "bench") for path in sorted((root / d).rglob("*.py"))}
    uses = {attrs: Counter(name for tree in trees.values() for name in _names(tree, attrs))
            for attrs in (False, True)}
    dead = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        methods = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name.startswith("_cmd_"):
                continue
            attrs = node in methods
            if uses[attrs][name] == Counter(_names(node, attrs))[name]:
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, f"definitions with no caller: {dead}"
