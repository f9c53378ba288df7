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


def _names(tree):
    """Every identifier the tree names, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_in_the_package_is_used():
    # a def counts as used when some name or attribute in src/, tests/ or
    # bench/ refers to it outside its own body; the CLI's _cmd_* handlers
    # are dispatched by name through globals()
    root = SRC.parent.parent
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for d in ("src", "tests", "bench") for path in sorted((root / d).rglob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    dead = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name.startswith("_cmd_"):
                continue
            if uses[name] == Counter(_names(node))[name]:
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert not dead, f"definitions with no caller: {dead}"
